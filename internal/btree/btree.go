// Package btree implements an in-memory B+tree keyed by byte strings,
// used as the index structure for every relational index in the
// engine. Keys are arbitrary []byte (typically produced by package
// keyenc); each key maps to a set of row ids, so non-unique indexes
// are supported directly.
//
// The tree supports point lookups, ordered insertion and deletion,
// forward range scans over [lo, hi) byte intervals — the access
// pattern behind the paper's composite (dewey_pos, path_id) index and
// the Dewey BETWEEN structural joins — and O(1) copy-on-write clones
// (Clone), the mechanism behind the engine's snapshot-isolated table
// versions: a clone shares every node with its source until a write
// touches it, so published trees are never mutated in place.
//
// Build makes a tree from pairs already in key order in one pass,
// bottom up: leaves are packed full (degree-1 entries) and interiors
// full (degree children), where insertion in key order would leave
// every leaf half full behind its splits. A table's index created over
// existing rows, and every index a checkpoint reload recreates, is
// built this way. Later writes treat a built tree like any other.
package btree

import "bytes"

// degree is the maximum number of children of an interior node. Leaf
// nodes hold up to degree-1 entries.
const degree = 64

// cowToken marks node ownership for copy-on-write clones: a node may
// be mutated in place only by the tree whose token it carries. Nodes
// reachable from a clone but created by an ancestor tree are copied
// on first write.
type cowToken struct{ _ byte }

// Tree is a B+tree from byte-string keys to lists of int64 values.
// The zero value is not usable; call New.
type Tree struct {
	root   node
	height int
	keys   int // number of distinct keys
	vals   int // number of (key, value) pairs
	cow    *cowToken
}

type node interface{}

type leaf struct {
	cow     *cowToken
	entries []entry
}

type entry struct {
	key  []byte
	vals []int64
}

type interior struct {
	cow *cowToken
	// children[i] covers keys < keys[i] (for i < len(keys)) and
	// children[len(keys)] covers the rest.
	keys     [][]byte
	children []node
}

// New returns an empty tree.
func New() *Tree {
	c := new(cowToken)
	return &Tree{root: &leaf{cow: c}, height: 0, cow: c}
}

// Clone returns a copy-on-write clone: an O(1) snapshot sharing every
// node with the receiver. Writes to the clone copy shared nodes along
// the touched path, leaving the source tree untouched, so a published
// source may keep serving concurrent readers while its clone absorbs
// inserts. Clones form a linear history (the engine always clones the
// newest version under its writer lock); cloning the same tree twice
// and writing to both divergent clones is not supported.
func (t *Tree) Clone() *Tree {
	return &Tree{root: t.root, height: t.height, keys: t.keys, vals: t.vals, cow: new(cowToken)}
}

// Build returns a tree holding the given (key, value) pairs, which must
// be in ascending key order: pairs with equal keys are adjacent, their
// values are kept in the order given, and a repeated pair is stored
// once, as Insert does. The tree takes ownership of the key slices;
// the caller must not modify them afterwards. Build panics if the
// slices differ in length or the keys do not ascend.
func Build(keys [][]byte, vals []int64) *Tree {
	if len(keys) != len(vals) {
		panic("btree: Build with unequal key and value counts")
	}
	t := New()
	if len(keys) == 0 {
		return t
	}
	distinct := 1
	for i := 1; i < len(keys); i++ {
		switch c := bytes.Compare(keys[i-1], keys[i]); {
		case c > 0:
			panic("btree: Build keys out of order")
		case c < 0:
			distinct++
		}
	}
	// Entries and their value lists are carved out of two shared
	// arrays, each window capped at its own length so that a later
	// append in place reallocates instead of running into a neighbour.
	entries := make([]entry, 0, distinct)
	all := make([]int64, 0, len(vals))
	start, ascending := 0, true // ascending: the key's values so far
	for i, k := range keys {
		v := vals[i]
		if i == 0 || !bytes.Equal(keys[i-1], k) {
			if i > 0 {
				entries[len(entries)-1].vals = all[start:len(all):len(all)]
			}
			entries = append(entries, entry{key: k})
			start, ascending = len(all), true
		} else if !ascending || v <= all[len(all)-1] {
			if contains(all[start:], v) {
				continue
			}
			ascending = false
		}
		all = append(all, v)
	}
	entries[len(entries)-1].vals = all[start:len(all):len(all)]
	t.keys, t.vals = len(entries), len(all)

	// The leaf level, then interior levels over it until one node is
	// left; mins[i] is the smallest key under level[i].
	leaves := make([]leaf, (len(entries)+degree-2)/(degree-1))
	level := make([]node, len(leaves))
	mins := make([][]byte, len(leaves))
	for i := range leaves {
		lo, hi := i*(degree-1), min((i+1)*(degree-1), len(entries))
		leaves[i] = leaf{cow: t.cow, entries: entries[lo:hi:hi]}
		level[i], mins[i] = &leaves[i], entries[lo].key
	}
	for len(level) > 1 {
		ins := make([]interior, (len(level)+degree-1)/degree)
		up, upMins := make([]node, len(ins)), make([][]byte, len(ins))
		for i := range ins {
			lo, hi := i*degree, min((i+1)*degree, len(level))
			ins[i] = interior{cow: t.cow, keys: mins[lo+1 : hi : hi], children: level[lo:hi:hi]}
			up[i], upMins[i] = &ins[i], mins[lo]
		}
		level, mins = up, upMins
		t.height++
	}
	t.root = level[0]
	return t
}

func contains(vals []int64, v int64) bool {
	for _, x := range vals {
		if x == v {
			return true
		}
	}
	return false
}

// mutableLeaf returns lf if this tree owns it, else a copy owned by
// this tree with one spare entry slot for the pending insert.
func (t *Tree) mutableLeaf(lf *leaf) *leaf {
	if lf.cow == t.cow {
		return lf
	}
	return &leaf{cow: t.cow, entries: append(make([]entry, 0, len(lf.entries)+1), lf.entries...)}
}

// mutableInterior returns in if this tree owns it, else a copy owned
// by this tree with one spare child slot.
func (t *Tree) mutableInterior(in *interior) *interior {
	if in.cow == t.cow {
		return in
	}
	return &interior{cow: t.cow,
		keys:     append(make([][]byte, 0, len(in.keys)+1), in.keys...),
		children: append(make([]node, 0, len(in.children)+1), in.children...)}
}

// Len returns the number of distinct keys in the tree.
func (t *Tree) Len() int { return t.keys }

// Pairs returns the total number of (key, value) pairs.
func (t *Tree) Pairs() int { return t.vals }

// Insert adds value v under key. Duplicate keys accumulate values;
// duplicate (key, value) pairs are stored once.
func (t *Tree) Insert(key []byte, v int64) {
	k := make([]byte, len(key))
	copy(k, key)
	repl, midKey, sibling := t.insert(t.root, t.height, k, v)
	t.root = repl
	if sibling != nil {
		t.root = &interior{cow: t.cow, keys: [][]byte{midKey}, children: []node{repl, sibling}}
		t.height++
	}
}

// insert descends to the leaf, inserts, and propagates splits upward.
// It returns the node that replaces n in its parent (n itself, or a
// copy when n was shared with an older clone), plus a non-nil sibling
// (and its separator key) if the node split.
func (t *Tree) insert(n node, height int, key []byte, v int64) (node, []byte, node) {
	if height == 0 {
		lf := n.(*leaf)
		i := searchEntries(lf.entries, key)
		if i < len(lf.entries) && bytes.Equal(lf.entries[i].key, key) {
			for _, existing := range lf.entries[i].vals {
				if existing == v {
					return n, nil, nil
				}
			}
			lf = t.mutableLeaf(lf)
			e := &lf.entries[i]
			// Appending may share the backing array with an older
			// clone's entry; safe because clones form a linear history
			// and older readers never index past their own length.
			e.vals = append(e.vals, v)
			t.vals++
			return lf, nil, nil
		}
		lf = t.mutableLeaf(lf)
		lf.entries = append(lf.entries, entry{})
		copy(lf.entries[i+1:], lf.entries[i:])
		lf.entries[i] = entry{key: key, vals: []int64{v}}
		t.keys++
		t.vals++
		if len(lf.entries) < degree {
			return lf, nil, nil
		}
		mid := len(lf.entries) / 2
		right := &leaf{cow: t.cow, entries: append([]entry(nil), lf.entries[mid:]...)}
		lf.entries = lf.entries[:mid:mid]
		return lf, right.entries[0].key, right
	}

	in := n.(*interior)
	i := searchKeys(in.keys, key)
	repl, midKey, sibling := t.insert(in.children[i], height-1, key, v)
	if repl == in.children[i] && sibling == nil {
		return in, nil, nil
	}
	in = t.mutableInterior(in)
	in.children[i] = repl
	if sibling == nil {
		return in, nil, nil
	}
	in.keys = append(in.keys, nil)
	copy(in.keys[i+1:], in.keys[i:])
	in.keys[i] = midKey
	in.children = append(in.children, nil)
	copy(in.children[i+2:], in.children[i+1:])
	in.children[i+1] = sibling
	if len(in.children) <= degree {
		return in, nil, nil
	}
	mid := len(in.keys) / 2
	sepKey := in.keys[mid]
	right := &interior{
		cow:      t.cow,
		keys:     append([][]byte(nil), in.keys[mid+1:]...),
		children: append([]node(nil), in.children[mid+1:]...),
	}
	in.keys = in.keys[:mid:mid]
	in.children = in.children[: mid+1 : mid+1]
	return in, sepKey, right
}

// searchEntries returns the first index i with entries[i].key >= key.
func searchEntries(entries []entry, key []byte) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(entries[mid].key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchKeys returns the child index to descend into for key: the
// first i with key < keys[i], i.e. children[i] covers keys < keys[i].
func searchKeys(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(key, keys[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Get returns the values stored under key, or nil.
func (t *Tree) Get(key []byte) []int64 {
	lf, i := t.findLeaf(key)
	if i < len(lf.entries) && bytes.Equal(lf.entries[i].key, key) {
		return lf.entries[i].vals
	}
	return nil
}

// Delete removes value v from key, returning whether the pair existed.
// Underfull nodes are not rebalanced (deletions are rare in the
// workloads; lookups remain correct and space is reclaimed when the
// tree is rebuilt). Like Insert, Delete is copy-on-write: shared
// nodes along the path are copied, never mutated.
func (t *Tree) Delete(key []byte, v int64) bool {
	repl, ok := t.delete(t.root, t.height, key, v)
	if ok {
		t.root = repl
	}
	return ok
}

func (t *Tree) delete(n node, height int, key []byte, v int64) (node, bool) {
	if height == 0 {
		lf := n.(*leaf)
		i := searchEntries(lf.entries, key)
		if i >= len(lf.entries) || !bytes.Equal(lf.entries[i].key, key) {
			return n, false
		}
		for j, existing := range lf.entries[i].vals {
			if existing != v {
				continue
			}
			lf = t.mutableLeaf(lf)
			e := &lf.entries[i]
			// Copy-on-shrink: removal must not disturb value slices
			// shared with older clones.
			vals := make([]int64, 0, len(e.vals)-1)
			vals = append(vals, e.vals[:j]...)
			vals = append(vals, e.vals[j+1:]...)
			e.vals = vals
			t.vals--
			if len(e.vals) == 0 {
				lf.entries = append(lf.entries[:i], lf.entries[i+1:]...)
				t.keys--
			}
			return lf, true
		}
		return n, false
	}
	in := n.(*interior)
	i := searchKeys(in.keys, key)
	repl, ok := t.delete(in.children[i], height-1, key, v)
	if !ok {
		return n, false
	}
	if repl != in.children[i] {
		in = t.mutableInterior(in)
		in.children[i] = repl
	}
	return in, true
}

func (t *Tree) findLeaf(key []byte) (*leaf, int) {
	n := t.root
	for h := t.height; h > 0; h-- {
		in := n.(*interior)
		n = in.children[searchKeys(in.keys, key)]
	}
	lf := n.(*leaf)
	return lf, searchEntries(lf.entries, key)
}

// Scan calls fn for every (key, value) pair with lo <= key < hi in
// ascending key order, stopping early if fn returns false. A nil hi
// means "no upper bound"; a nil lo starts at the smallest key.
func (t *Tree) Scan(lo, hi []byte, fn func(key []byte, v int64) bool) {
	t.scan(t.root, t.height, lo, hi, fn)
}

// scan descends the subtree in key order; it returns false when fn
// stopped the scan or the upper bound was reached. Leaves carry no
// next-pointer chain (threading one would break structural sharing
// across clones), so the range walk recurses through the interior
// nodes instead — one recursion per degree-wide node, negligible next
// to the per-entry callback.
func (t *Tree) scan(n node, height int, lo, hi []byte, fn func(key []byte, v int64) bool) bool {
	if height == 0 {
		lf := n.(*leaf)
		i := 0
		if lo != nil {
			i = searchEntries(lf.entries, lo)
		}
		for ; i < len(lf.entries); i++ {
			e := &lf.entries[i]
			if hi != nil && bytes.Compare(e.key, hi) >= 0 {
				return false
			}
			for _, v := range e.vals {
				if !fn(e.key, v) {
					return false
				}
			}
		}
		return true
	}
	in := n.(*interior)
	start := 0
	if lo != nil {
		start = searchKeys(in.keys, lo)
	}
	for i := start; i < len(in.children); i++ {
		// children[i] covers keys >= keys[i-1]; once that floor passes
		// the upper bound the walk is done.
		if hi != nil && i > start && bytes.Compare(in.keys[i-1], hi) >= 0 {
			return false
		}
		if i > start {
			lo = nil // only the first child needs the lower bound
		}
		if !t.scan(in.children[i], height-1, lo, hi, fn) {
			return false
		}
	}
	return true
}

// ScanAll calls fn for every pair in ascending key order.
func (t *Tree) ScanAll(fn func(key []byte, v int64) bool) { t.Scan(nil, nil, fn) }

// Min returns the smallest key, or nil if the tree is empty.
func (t *Tree) Min() []byte {
	n := t.root
	for h := t.height; h > 0; h-- {
		n = n.(*interior).children[0]
	}
	lf := n.(*leaf)
	if len(lf.entries) == 0 {
		return nil
	}
	return lf.entries[0].key
}

// Height returns the tree height (0 for a single-leaf tree), exposed
// for tests and statistics.
func (t *Tree) Height() int { return t.height }
