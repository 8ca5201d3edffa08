package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

type pair struct {
	key []byte
	v   int64
}

// sortedPairs draws n pairs over about n/dup distinct keys of varied
// length, with repeated (key, value) pairs mixed in, in stable key
// order — the order Build takes.
func sortedPairs(rng *rand.Rand, n, dup int) []pair {
	ps := make([]pair, n)
	for i := range ps {
		k := rng.Intn(n/dup + 1)
		ps[i] = pair{key: []byte(fmt.Sprintf("%0*d", 1+k%7, k)), v: int64(rng.Intn(4 * n))}
		if i > 0 && rng.Intn(16) == 0 {
			ps[i] = ps[rng.Intn(i)] // an exact repeat
		}
	}
	sort.SliceStable(ps, func(i, j int) bool { return bytes.Compare(ps[i].key, ps[j].key) < 0 })
	return ps
}

// build makes the two trees under comparison from the same pairs: one
// by Build, one by Insert in the same order.
func build(ps []pair) (built, inserted *Tree) {
	keys, vals := make([][]byte, len(ps)), make([]int64, len(ps))
	inserted = New()
	for i, p := range ps {
		keys[i], vals[i] = append([]byte(nil), p.key...), p.v
		inserted.Insert(p.key, p.v)
	}
	return Build(keys, vals), inserted
}

// dumpTree renders a tree's contents through the read API: Len, Pairs,
// the full ordered scan, and Get of every key present.
func dumpTree(t *Tree) string {
	var b strings.Builder
	fmt.Fprintf(&b, "len=%d pairs=%d min=%q\n", t.Len(), t.Pairs(), t.Min())
	var last []byte
	t.ScanAll(func(k []byte, v int64) bool {
		if !bytes.Equal(k, last) {
			fmt.Fprintf(&b, "\n%q get=%v:", k, t.Get(k))
			last = k
		}
		fmt.Fprintf(&b, " %d", v)
		return true
	})
	return b.String()
}

func requireSameTree(t *testing.T, what string, got, want *Tree) {
	t.Helper()
	if g, w := dumpTree(got), dumpTree(want); g != w {
		t.Fatalf("%s: built tree differs from inserted tree:\n%s\nwant\n%s", what, g, w)
	}
}

// edit applies the same seeded inserts and deletes to every tree given.
func edit(seed int64, n int, trees ...*Tree) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("%0*d", 1+i%7, rng.Intn(n+10)))
		v := int64(rng.Intn(8 * n))
		del := rng.Intn(3) == 0
		for _, t := range trees {
			if del {
				t.Delete(k, v)
			} else {
				t.Insert(k, v)
			}
		}
	}
}

// checkBuild: a built tree reads like the tree Insert makes from the
// same pairs; edits through a clone of it match the same edits on the
// inserted tree and leave it unchanged; edits to a built tree in
// place match too.
func checkBuild(t *testing.T, ps []pair) {
	t.Helper()
	built, inserted := build(ps)
	requireSameTree(t, "as built", built, inserted)
	before := dumpTree(built)

	clone := built.Clone()
	edit(int64(len(ps)), len(ps)/2+20, clone, inserted)
	requireSameTree(t, "edited clone", clone, inserted)
	if after := dumpTree(built); after != before {
		t.Fatalf("editing a clone changed the built tree:\n%s\nwant\n%s", after, before)
	}

	owned, fresh := build(ps)
	edit(int64(len(ps))+1, len(ps)/2+20, owned, fresh)
	requireSameTree(t, "edited in place", owned, fresh)
}

func TestBuildMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, degree - 2, degree - 1, degree, degree + 1, degree * degree}
	if !testing.Short() {
		sizes = append(sizes, 300000)
	}
	for _, n := range sizes {
		for _, dup := range []int{1, 3} {
			t.Run(fmt.Sprintf("n=%d/dup=%d", n, dup), func(t *testing.T) {
				checkBuild(t, sortedPairs(rng, n, dup))
			})
		}
	}
}

// TestBuildPacksLeaves: a built tree is as shallow as full nodes make
// it, where ascending inserts leave half-full leaves behind.
func TestBuildPacksLeaves(t *testing.T) {
	const n = degree * degree
	keys, vals := make([][]byte, n), make([]int64, n)
	for i := range keys {
		keys[i] = binary.BigEndian.AppendUint32(nil, uint32(i))
		vals[i] = int64(i)
	}
	built := Build(keys, vals)
	// 4096 keys fill ceil(4096/63) = 66 leaves under 2 interiors.
	if h := built.Height(); h != 2 {
		t.Fatalf("height of a built %d-key tree = %d, want 2", n, h)
	}
	leaves := 0
	var walk func(nd node, h int)
	walk = func(nd node, h int) {
		if h == 0 {
			if lf := nd.(*leaf); len(lf.entries) != degree-1 && leaves < 65 {
				t.Fatalf("leaf %d holds %d entries, want %d", leaves, len(lf.entries), degree-1)
			}
			leaves++
			return
		}
		for _, c := range nd.(*interior).children {
			walk(c, h-1)
		}
	}
	walk(built.root, built.height)
	if leaves != 66 {
		t.Fatalf("%d leaves, want 66", leaves)
	}
}

func TestBuildRejectsDescendingKeys(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build of descending keys did not panic")
		}
	}()
	Build([][]byte{[]byte("b"), []byte("a")}, []int64{1, 2})
}

// FuzzBTreeBuild runs checkBuild on pairs decoded from the input, three
// bytes a pair: a key length and byte, and a value.
func FuzzBTreeBuild(f *testing.F) {
	f.Add([]byte("a1xa1xb2yb2zc3z"))
	f.Add(bytes.Repeat([]byte{1, 7, 3}, 200))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ps []pair
		for ; len(data) >= 3; data = data[3:] {
			ps = append(ps, pair{key: bytes.Repeat(data[1:2], int(data[0]%4)), v: int64(data[2] % 16)})
		}
		sort.SliceStable(ps, func(i, j int) bool { return bytes.Compare(ps[i].key, ps[j].key) < 0 })
		checkBuild(t, ps)
	})
}
