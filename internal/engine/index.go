package engine

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"strings"
)

// Index is an index over one or more columns of one table state: a run
// of the state's row ids in key order. A row's key is its Cols' values
// in order, ordered as their encodings (encodeValue) are (keyOrder);
// rows with equal keys follow one another by row id. While row order is
// key order — as it is for the shredded stores' id and Dewey indexes,
// whose rows are appended in document order — the run is the rows
// themselves and ids is nil. An index whose order a write breaks keeps
// its run in ids. A commit gives the successor state a new Index, and a
// new ids wherever the run changes: ids a published state reads are
// never written.
type Index struct {
	Name string
	Cols []int // column positions, in key order
	// key and n are the indexed state's columns at Cols and its number
	// of rows: the run orders row ids 0 to n-1 by the cells of key.
	key []*column
	n   int
	ids []int64 // the run; nil where it is 0, 1, ..., n-1
	// keys counts the distinct keys among the rows. It is exact: the
	// planner proves a column a key (implied.go, resolve.go) when every
	// row's key is distinct, and reads an equality lookup's fan-out off it.
	keys int
}

// newIndex indexes the rows of st: one pass over their keys where
// they ascend, a stable sort of the row ids by key otherwise.
func newIndex(name string, cols []int, st *tableState) *Index {
	return (&Index{Name: name, Cols: cols}).extend(st)
}

// extend returns the index of st, whose rows are ix's followed by the
// rows a commit appends. The run stays the rows themselves while the
// appended keys ascend from the last key; otherwise the appended ids,
// sorted by key, are merged into a copy of the run, each after the ids
// of its key already there. The appended ids of an index over one INT
// column whose keys span few values — a shredded relation's path_id
// posting lists, its parent ids — are counted into place (countInt);
// any others are sorted through the columns.
func (ix *Index) extend(st *tableState) *Index {
	next := &Index{Name: ix.Name, Cols: ix.Cols, key: st.keyCols(ix.Cols), n: st.n, ids: ix.ids, keys: ix.keys}
	if next.ascendsFrom(ix) {
		return next
	}
	next.keys = ix.keys
	order := next.countInt(ix.n)
	if order == nil {
		order = next.sortIDs(ix.n)
	}
	next.merge(ix, order)
	return next
}

// ascendsFrom reports whether the run is still the rows themselves:
// ix's run is, and the rows appended past it keep key order. It counts
// the keys they add as it goes.
func (ix *Index) ascendsFrom(prev *Index) bool {
	if prev.ids != nil {
		return false
	}
	for id := int64(prev.n); id < int64(ix.n); id++ {
		c := 1
		if id > 0 {
			c = ix.compareIDs(id, id-1)
		}
		if c < 0 {
			return false
		}
		if c > 0 {
			ix.keys++
		}
	}
	return true
}

// sortIDs returns the row ids from base on, sorted stably by key.
func (ix *Index) sortIDs(base int) []int64 {
	order := make([]int64, ix.n-base)
	for j := range order {
		order[j] = int64(base + j)
	}
	slices.SortStableFunc(order, ix.compareIDs)
	return order
}

// countInt returns the row ids from base on sorted by key, the NULLs
// first and equal keys by row id, counted into place: where the index
// is over one INT column whose keys among those rows span at most
// twice as many values as there are rows, as a relation's path ids and
// its parents' ids do. Otherwise it returns nil.
func (ix *Index) countInt(base int) []int64 {
	if len(ix.key) != 1 || ix.key[0].typ != TInt {
		return nil
	}
	c := ix.key[0]
	lo, hi, nulls := int64(math.MaxInt64), int64(math.MinInt64), 0
	for id := int64(base); id < int64(ix.n); id++ {
		k, ok := c.int(id)
		if !ok {
			nulls++
			continue
		}
		lo, hi = min(lo, k), max(hi, k)
	}
	keyed := ix.n - base - nulls
	if span := uint64(hi - lo); keyed == 0 || span >= 2*uint64(keyed) {
		return nil
	}
	at := make([]int, hi-lo+2)
	for id := int64(base); id < int64(ix.n); id++ {
		if k, ok := c.int(id); ok {
			at[k-lo+1]++
		}
	}
	at[0] = nulls
	for i := 1; i < len(at); i++ {
		at[i] += at[i-1]
	}
	order, null := make([]int64, ix.n-base), 0
	for id := int64(base); id < int64(ix.n); id++ {
		k, ok := c.int(id)
		if !ok {
			order[null] = id
			null++
			continue
		}
		order[at[k-lo]] = id
		at[k-lo]++
	}
	return order
}

// merge sets the run to prev's merged with order, the row ids prev
// does not hold sorted by key, and counts the keys they add.
func (ix *Index) merge(prev *Index, order []int64) {
	ix.ids = make([]int64, 0, ix.n)
	pos := 0
	var k []Value
	for j, id := range order {
		if j > 0 && ix.compareIDs(order[j-1], id) == 0 {
			ix.ids = append(ix.ids, id)
			continue
		}
		k = ix.keyOf(k[:0], id)
		lo := prev.near(pos, k, false)
		hi := prev.near(lo, k, true)
		ix.ids = prev.run(pos, hi).appendTo(ix.ids)
		ix.ids = append(ix.ids, id)
		if lo == hi {
			ix.keys++
		}
		pos = hi
	}
	ix.ids = prev.run(pos, prev.len()).appendTo(ix.ids)
}

// len returns the length of the run.
func (ix *Index) len() int {
	if ix.ids == nil {
		return ix.n
	}
	return len(ix.ids)
}

// run returns positions [lo, hi) of the run.
func (ix *Index) run(lo, hi int) seg { return seg{ids: ix.ids, lo: lo, hi: hi} }

// below reports whether position p of the run comes before k: its
// key's leading len(k) values are below k, or with after, not above it.
func (ix *Index) below(p int, k []Value, after bool) bool {
	id, c := seg{ids: ix.ids}.at(p), 0
	for i := range k {
		if c = ix.key[i].order(id, &k[i]); c != 0 {
			break
		}
	}
	return c < 0 || c == 0 && after
}

// search returns the first position in [lo, hi) that does not come
// before k (below), or hi: with after, the first past every key that
// begins with k.
func (ix *Index) search(lo, hi int, k []Value, after bool) int {
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); ix.below(m, k, after) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// near is search over the run from position from, for a position
// usually close to it: a step doubled from from brackets it first.
func (ix *Index) near(from int, k []Value, after bool) int {
	lo, hi := from, ix.len()
	for step := 1; lo < hi; step *= 2 {
		p := min(lo+step, hi) - 1
		if !ix.below(p, k, after) {
			return ix.search(lo, p, k, after)
		}
		lo = p + 1
	}
	return lo
}

// equal returns the stretch of the run whose key begins with k. Over
// one key — the path_id index of a relation whose rows all hold one
// path — it is the whole run or nothing, and one comparison decides.
func (ix *Index) equal(k []Value) seg {
	if ix.keys == 1 {
		if ix.below(0, k, false) || !ix.below(0, k, true) {
			return seg{}
		}
		return ix.run(0, ix.len())
	}
	lo := ix.search(0, ix.len(), k, false)
	return ix.run(lo, ix.near(lo, k, true))
}

// between returns the stretch of the run from lower bound lo up to
// upper bound hi, each the position search finds; a nil bound is open.
func (ix *Index) between(lo []Value, loAfter bool, hi []Value, hiAfter bool) seg {
	s := ix.run(0, ix.len())
	if lo != nil {
		s.lo = ix.search(0, s.hi, lo, loAfter)
	}
	if hi != nil {
		s.hi = ix.near(s.lo, hi, hiAfter)
	}
	return s
}

// compareIDs orders two rows by their keys.
func (ix *Index) compareIDs(a, b int64) int {
	for _, c := range ix.key {
		if o := c.compare(a, b); o != 0 {
			return o
		}
	}
	return 0
}

// keyOf appends row id's key values to dst.
func (ix *Index) keyOf(dst []Value, id int64) []Value {
	for _, c := range ix.key {
		dst = append(dst, c.value(id))
	}
	return dst
}

// unique reports whether no two rows share a key.
func (ix *Index) unique() bool { return ix.keys == ix.n }

// keyOrder compares two values as their encodings (encodeValue) do:
// NULL first, then ints and booleans, byte strings, and text and
// floats (by their text), each by value.
func keyOrder(a, b Value) int {
	if c := cmp.Compare(keyTag(a), keyTag(b)); c != 0 {
		return c
	}
	switch keyTag(a) {
	case 2:
		return cmp.Compare(a.I, b.I)
	case 3:
		return bytes.Compare(a.B, b.B)
	case 4:
		return strings.Compare(keyText(a), keyText(b))
	}
	return 0
}

// keyTag ranks a value's kind as its encoding's leading tag does.
func keyTag(v Value) int {
	switch v.Kind {
	case KInt, KBool:
		return 2
	case KBytes:
		return 3
	case KText, KFloat:
		return 4
	}
	return 1
}

func keyText(v Value) string {
	if v.Kind == KFloat {
		return v.String()
	}
	return v.S
}

// A seg is a stretch of a run: positions [lo, hi) of ids, or where ids
// is nil (a run that is the rows themselves), the row ids lo..hi-1.
type seg struct {
	ids    []int64
	lo, hi int
}

// at returns the row id at position i.
func (s seg) at(i int) int64 {
	if s.ids == nil {
		return int64(i)
	}
	return s.ids[i]
}

// appendTo appends the stretch's row ids to dst.
func (s seg) appendTo(dst []int64) []int64 {
	if s.ids != nil {
		return append(dst, s.ids[s.lo:s.hi]...)
	}
	for id := s.lo; id < s.hi; id++ {
		dst = append(dst, int64(id))
	}
	return dst
}
