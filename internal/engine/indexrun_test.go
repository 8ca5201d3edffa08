package engine

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// FuzzIndexRun checks index runs against their rows. Each input appends
// rows to a durable table over several commits — some batches in key
// order, some not, with NULLs and repeated keys — under a single-column
// int index and a composite (bytes, int) one, each created both before
// the inserts and after them. Both copies must be their rows sorted
// stably by key (checkRunOrder) and hold the same run; every access
// path over a run — equality, one- and two-sided range, prefixes,
// probes of a key set merged and not, and the scoped runs of a key set —
// must yield exactly what a filter over the rows in (key, row id) order
// yields; and the store must dump the same after a checkpoint and a
// reopen.
func FuzzIndexRun(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(40), uint8(7), uint8(3))
	f.Add(int64(2), uint8(1), uint8(63), uint8(2), uint8(0))
	f.Add(int64(3), uint8(5), uint8(9), uint8(20), uint8(1))
	// A domain wider than a commit's rows, whose INT keys are sorted
	// through the columns, and a narrow one over long commits, whose keys
	// are counted into place.
	f.Add(int64(4), uint8(3), uint8(2), uint8(23), uint8(0))
	f.Add(int64(5), uint8(2), uint8(60), uint8(2), uint8(1))
	// One row: the INT index holds one key, so a lookup is the whole run
	// or nothing (Index.equal).
	f.Add(int64(6), uint8(0), uint8(0), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, commits, perCommit, domain, batch uint8) {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		tb, err := db.CreateTable("T", Column{"a", TInt}, Column{"b", TBytes}, Column{"c", TInt})
		if err != nil {
			t.Fatal(err)
		}
		mustIndex(t, tb, "pre_a", "a")
		mustIndex(t, tb, "pre_bc", "b", "c")
		g := &rowGen{rng: rng, domain: 1 + int(domain)%24, pos: []byte{1}}
		for i := 0; i < 1+int(commits)%6; i++ {
			rows := make([][]Value, 1+int(perCommit)%64)
			ordered := rng.Intn(2) == 0
			for j := range rows {
				rows[j] = g.row(ordered)
			}
			if _, err := tb.InsertBatch(rows); err != nil {
				t.Fatal(err)
			}
		}
		mustIndex(t, tb, "post_a", "a")
		mustIndex(t, tb, "post_bc", "b", "c")

		st := tb.state()
		n := []int{1, 2, 7, batchCapacity}[batch%4]
		for _, pair := range [][2]string{{"pre_a", "post_a"}, {"pre_bc", "post_bc"}} {
			pre, post := indexNamed(st, pair[0]), indexNamed(st, pair[1])
			for _, ix := range []*Index{pre, post} {
				if err := checkRunOrder("T", ix); err != nil {
					t.Fatal(err)
				}
			}
			if p, q := pre.run(0, pre.len()).appendTo(nil), post.run(0, post.len()).appendTo(nil); !slices.Equal(p, q) {
				t.Fatalf("%s holds %v, %s %v", pre.Name, p, post.Name, q)
			}
			// The INT index's appended keys are counted into place where
			// they span few values; the generic sort through the columns
			// must agree with both copies.
			gen := genericIndex(st, pre.Cols)
			if p, q := pre.run(0, pre.len()).appendTo(nil), gen.run(0, gen.len()).appendTo(nil); !slices.Equal(p, q) || gen.keys != pre.keys {
				t.Fatalf("%s holds %v over %d keys, the generic sort %v over %d", pre.Name, p, pre.keys, q, gen.keys)
			}
		}
		for _, name := range []string{"pre_a", "post_a"} {
			checkIntPaths(t, g, st, indexNamed(st, name), n)
		}
		for _, name := range []string{"pre_bc", "post_bc"} {
			checkBytesPaths(t, g, st, indexNamed(st, name), n)
		}

		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		want := dumpDB(db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if got := dumpDB(re); got != want {
			t.Fatalf("reopened store dumps\n%s\nwant\n%s", got, want)
		}
		requireRunsOrderRows(t, re)
	})
}

func mustIndex(t *testing.T, tb *Table, name string, cols ...string) {
	t.Helper()
	if _, err := tb.CreateIndex(name, cols...); err != nil {
		t.Fatal(err)
	}
}

func indexNamed(st *tableState, name string) *Index {
	for _, ix := range st.indexes {
		if ix.Name == name {
			return ix
		}
	}
	return nil
}

// rowGen draws rows (a INT, b BYTES, c INT). An ordered row continues
// a walk in document order — b a Dewey-like position, the next a child,
// sibling or the parent's sibling of the last, a rising by halves — so
// a batch of them keeps both indexes' key order. Any other row draws a
// from a small domain and b as a short string over {0, 1, 2}, either of
// them sometimes NULL.
type rowGen struct {
	rng    *rand.Rand
	domain int
	pos    []byte
	steps  int
}

func (g *rowGen) row(ordered bool) []Value {
	c := NewInt(int64(g.rng.Intn(3)))
	if ordered {
		g.steps++
		switch r := g.rng.Intn(3); {
		case r == 0 || g.pos[len(g.pos)-1] == 255:
			g.pos = append(g.pos, 1)
		case r == 2 && len(g.pos) > 1 && g.pos[len(g.pos)-2] < 255:
			g.pos = g.pos[:len(g.pos)-1]
			g.pos[len(g.pos)-1]++
		default:
			g.pos[len(g.pos)-1]++
		}
		return []Value{NewInt(int64(g.domain + g.steps/2)), NewBytes(slices.Clone(g.pos)), c}
	}
	a, b := Null, Null
	if g.rng.Intn(8) > 0 {
		a = NewInt(int64(g.rng.Intn(g.domain)))
	}
	if g.rng.Intn(8) > 0 {
		b = NewBytes(g.bytes())
	}
	return []Value{a, b, c}
}

// bytes draws a string of up to three bytes over {0, 1, 2}.
func (g *rowGen) bytes() []byte {
	b := make([]byte, g.rng.Intn(4))
	for i := range b {
		b[i] = byte(g.rng.Intn(3))
	}
	return b
}

// value draws a probe value of column a or b: usually one a row holds.
func (g *rowGen) value(st *tableState, col int) Value {
	if g.rng.Intn(4) > 0 && st.n > 0 {
		return st.cols[col].value(int64(g.rng.Intn(st.n)))
	}
	if col == 0 {
		return NewInt(int64(g.rng.Intn(g.domain+g.steps) - 1))
	}
	return NewBytes(g.bytes())
}

// compareFirst orders values of one column as an index does: NULL
// first, then ints or byte strings by value.
func compareFirst(v, w Value) int {
	switch {
	case v.IsNull() || w.IsNull():
		return btoi(!v.IsNull()) - btoi(!w.IsNull())
	case v.Kind == KBytes:
		return bytes.Compare(v.B, w.B)
	case v.I < w.I:
		return -1
	case v.I > w.I:
		return 1
	}
	return 0
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// filterInKeyOrder is the oracle: the ids of rows, ix's rows, sorted
// stably by key, the ones keep admits.
func filterInKeyOrder(rows [][]Value, ix *Index, keep func(row []Value) bool) []int64 {
	ids := make([]int64, ix.n)
	for i := range ids {
		ids[i] = int64(i)
	}
	slices.SortStableFunc(ids, func(x, y int64) int {
		return bytes.Compare(encodedKey(ix, x), encodedKey(ix, y))
	})
	return slices.DeleteFunc(ids, func(id int64) bool { return !keep(rows[id]) })
}

// enumerateAll runs one access path over st at batch capacity n.
func enumerateAll(t *testing.T, st *tableState, a accessPath, n int) []int64 {
	t.Helper()
	var got []int64
	ec := &execCtx{acct: newAccountant(0, 0), batch: n}
	err := forEachBatch(ec, nil, &joinStep{st: st, access: a}, &OpStats{}, &batchScratch{n: n}, func(ids []int64) (bool, error) {
		if len(ids) == 0 || len(ids) > n {
			t.Errorf("a batch of %d ids at capacity %d", len(ids), n)
		}
		got = append(got, ids...)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func requireIDs(t *testing.T, what string, got, want []int64) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s yields %v, want %v", what, got, want)
	}
}

// rangeOracle admits a row whose column col lies within the bounds, as
// the index orders it: a missing lower bound admits NULL.
func rangeOracle(col int, lo, hi *Value, loStrict, hiStrict bool) func([]Value) bool {
	return func(row []Value) bool {
		v := row[col]
		if lo != nil {
			if c := compareFirst(v, *lo); c < 0 || c == 0 && loStrict {
				return false
			}
		}
		if hi != nil {
			if c := compareFirst(v, *hi); c > 0 || c == 0 && hiStrict {
				return false
			}
		}
		return true
	}
}

// keyProbes draws a key set of column a and its probes over ix, merged
// and not.
func keyProbes(g *rowGen, st *tableState, ix *Index) (*keySet, []*keyProbe) {
	ks := &keySet{has: map[int64]struct{}{}}
	for i := g.rng.Intn(5); i >= 0; i-- {
		if v := g.value(st, 0); !v.IsNull() {
			ks.has[v.I] = struct{}{}
		}
	}
	for k := range ks.has {
		ks.keys = append(ks.keys, k)
	}
	slices.Sort(ks.keys)
	res := &resolution{keys: ks}
	var out []*keyProbe
	for _, merged := range []bool{false, true} {
		out = append(out, &keyProbe{col: 0, ix: ix, res: res, merged: merged})
	}
	return ks, out
}

func checkIntPaths(t *testing.T, g *rowGen, st *tableState, ix *Index, n int) {
	rows := stateRows(st)
	for i := 0; i < 8; i++ {
		v := g.value(st, 0)
		want := filterInKeyOrder(rows, ix, func(row []Value) bool { return !v.IsNull() && !row[0].IsNull() && row[0].I == v.I })
		requireIDs(t, ix.Name+" = "+v.String(), enumerateAll(t, st, &indexEq{ix: ix, keys: []cexpr{&clit{v}}}, n), want)

		lo, hi := g.value(st, 0), g.value(st, 0)
		if lo.IsNull() || hi.IsNull() {
			continue
		}
		loStrict, hiStrict := g.rng.Intn(2) == 0, g.rng.Intn(2) == 0
		for _, r := range []*indexRange{
			{ix: ix, lo: &clit{lo}, hi: &clit{hi}, loStrict: loStrict, hiStrict: hiStrict},
			{ix: ix, lo: &clit{lo}, loStrict: loStrict},
			{ix: ix, hi: &clit{hi}, hiStrict: hiStrict},
		} {
			var lp, hp *Value
			if r.lo != nil {
				lp = &lo
			}
			if r.hi != nil {
				hp = &hi
			}
			want := filterInKeyOrder(rows, ix, rangeOracle(0, lp, hp, r.loStrict, r.hiStrict))
			requireIDs(t, ix.Name+" range", enumerateAll(t, st, r, n), want)
		}
	}
	for i := 0; i < 4; i++ {
		ks, probes := keyProbes(g, st, ix)
		var unmerged []int64
		for _, k := range ks.keys {
			unmerged = append(unmerged, filterInKeyOrder(rows, ix, func(row []Value) bool { return !row[0].IsNull() && row[0].I == k })...)
		}
		merged := slices.Clone(unmerged)
		slices.Sort(merged)
		for _, p := range probes {
			want := unmerged
			if p.merged {
				want = merged
			}
			requireIDs(t, "key probe", enumerateAll(t, st, p, n), want)
		}
	}
}

func checkBytesPaths(t *testing.T, g *rowGen, st *tableState, ix *Index, n int) {
	rows := stateRows(st)
	for i := 0; i < 8; i++ {
		b, c := g.value(st, 1), NewInt(int64(g.rng.Intn(3)))
		want := filterInKeyOrder(rows, ix, func(row []Value) bool {
			return !b.IsNull() && !row[1].IsNull() && bytes.Equal(row[1].B, b.B) && row[2].I == c.I
		})
		requireIDs(t, ix.Name+" = ("+b.String()+", "+c.String()+")", enumerateAll(t, st, &indexEq{ix: ix, keys: []cexpr{&clit{b}, &clit{c}}}, n), want)

		lo, hi := g.value(st, 1), g.value(st, 1)
		if !lo.IsNull() && !hi.IsNull() {
			loStrict, hiStrict := g.rng.Intn(2) == 0, g.rng.Intn(2) == 0
			want = filterInKeyOrder(rows, ix, rangeOracle(1, &lo, &hi, loStrict, hiStrict))
			requireIDs(t, ix.Name+" range", enumerateAll(t, st, &indexRange{ix: ix, lo: &clit{lo}, hi: &clit{hi}, loStrict: loStrict, hiStrict: hiStrict}, n), want)
		}

		x := g.value(st, 1)
		if x.IsNull() {
			continue
		}
		x = NewBytes(append(slices.Clone(x.B), g.bytes()...))
		ks, probes := keyProbes(g, st, nil)
		// A scoped run reads the posting lists of the key set's keys where
		// a single-column index is on a and its own run is the rows; a
		// state without the index on a tests every row of the run.
		for _, s := range []*tableState{st, withoutIndexOn(st, 0)} {
			for _, restrict := range []*keyProbe{nil, probes[0]} {
				admits := func(row []Value) bool {
					_, ok := ks.has[row[0].I]
					return row[1].Kind == KBytes && (restrict == nil || row[0].Kind == KInt && ok)
				}
				want := filterInKeyOrder(rows, ix, func(row []Value) bool { return admits(row) && bytes.HasPrefix(x.B, row[1].B) })
				requireIDs(t, ix.Name+" prefixes of "+x.String(), enumerateAll(t, s, &indexPrefixes{ix: ix, x: &clit{x}, restrict: restrict}, n), want)

				top := NewBytes(append(slices.Clone(x.B), 0xFF))
				want = filterInKeyOrder(rows, ix, func(row []Value) bool { return admits(row) && rangeOracle(1, &x, &top, false, false)(row) })
				requireIDs(t, ix.Name+" window under "+x.String(), enumerateAll(t, s, &indexRange{ix: ix, lo: &clit{x}, hi: &clit{top}, prefix: true, restrict: restrict}, n), want)
			}
		}
	}
}

// withoutIndexOn returns a state of st's rows without the indexes that
// lead with column col, and with empty memos.
func withoutIndexOn(st *tableState, col int) *tableState {
	out := newTableState()
	out.n, out.cols, out.syn, out.ascending = st.n, st.cols, st.syn, st.ascending
	for _, ix := range st.indexes {
		if ix.Cols[0] != col {
			out.indexes = append(out.indexes, ix)
		}
	}
	return out
}

// genericIndex indexes st's rows at cols as extend does an index whose
// keys it does not count: the row ids sorted through the columns.
func genericIndex(st *tableState, cols []int) *Index {
	none := &Index{Cols: cols}
	ix := &Index{Cols: cols, key: st.keyCols(cols), n: st.n}
	if !ix.ascendsFrom(none) {
		ix.keys = 0
		ix.merge(none, ix.sortIDs(0))
	}
	return ix
}

// stateRows materialises the rows of st, as Table.Rows does.
func stateRows(st *tableState) [][]Value {
	rows := make([][]Value, st.n)
	for id := range rows {
		for j := range st.cols {
			rows[id] = append(rows[id], st.cols[j].value(int64(id)))
		}
	}
	return rows
}

// TestKeyOrderIsEncodingOrder: keyOrder compares any two values, of any
// kinds, as bytes.Compare compares their encodings.
func TestKeyOrderIsEncodingOrder(t *testing.T) {
	vals := []Value{Null, NewInt(-3), NewInt(0), NewInt(7), NewBool(false), NewBool(true),
		NewFloat(-1.5), NewFloat(2), NewFloat(10), NewText(""), NewText("a"), NewText("a\x00"), NewText("a\x00b"), NewText("b"),
		NewBytes(nil), NewBytes([]byte{0}), NewBytes([]byte{0, 0}), NewBytes([]byte{0, 1}), NewBytes([]byte{1}), NewBytes([]byte{0xFF})}
	sign := func(c int) int { return btoi(c > 0) - btoi(c < 0) }
	for _, a := range vals {
		for _, b := range vals {
			if got, want := sign(keyOrder(a, b)), sign(bytes.Compare(encodeValue(nil, a), encodeValue(nil, b))); got != want {
				t.Errorf("keyOrder(%v %v, %v %v) = %d, encodings compare %d", a.Kind, a, b.Kind, b, got, want)
			}
		}
	}
}
