// Package synopsis maintains per-table, per-column statistics used by
// the cost-based planner: row counts, null counts, exact min/max for
// numeric columns, value-length sketches, and a capped exact
// value-frequency histogram with a linear-counting distinct sketch for
// columns whose cardinality exceeds the cap.
//
// A Table is immutable once sealed. The engine's copy-on-write table
// states each carry one: a write extends the predecessor (Extend),
// observes the new rows, and seals the successor, so a synopsis is
// always exactly consistent with the snapshot that carries it —
// including across WAL recovery and checkpoint reload, which replay
// inserts through the same observe path as live writes.
//
// A column's histogram keys are stored once, in a pointer-free
// dictionary that numbers them in admission order: int and float keys
// as 8-byte words, text and bytes keys back to back in a byte arena,
// and an open-addressed index over the fixed hash the distinct sketch
// uses, so an observed value is hashed once for both. A successor
// shares its predecessor's dictionary and appends keys only past its
// length; the index is copied before a commit first adds to it.
//
// A successor shares its predecessor's counts instead of copying them.
// Each column's histogram is an ordered list of immutable layers of
// count deltas keyed by dictionary code, oldest and largest first; a
// key's count is the sum of its deltas. A Builder writes one layer of
// its own, and Seal drops it if it stayed empty, then merges the top
// layer into the one below while the top holds at least half as many
// keys. Each layer is thus under half the size of the one below it,
// and no histogram is deeper than log2(HistCap)+1 layers. The
// distinct-key count and the largest count are kept as running totals,
// and the distinct sketch is copied only when a write first sets one of
// its bits. A commit therefore costs its column count plus the keys its
// rows touch (times the depth), amortized over the merges, not the
// size of the histograms it extends.
//
// The per-path statistics of the paper's shredded stores fall out of
// the generic machinery: the node table's path_id column histogram is
// the per-path node count, parent→child fanout for paths p→c is
// N(c)/N(p) over that histogram, and distinct-value counts per column
// drive equality selectivity (see DESIGN.md §13).
package synopsis

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync/atomic"
)

// HistCap bounds the exact value-frequency histogram per column. Past
// the cap, new values stop being added to the histogram (existing keys
// keep counting) and a linear-counting bitmap takes over distinct
// estimation. Shredded-store key columns (path_id over the paths
// relation) stay far below the cap, so path statistics are exact.
const HistCap = 1024

// sketchWords sizes the linear-counting bitmap: 128 words = 8192 bits,
// good to a few percent up to ~20k distinct values per column.
const sketchWords = 128

// colStats accumulates one column's statistics. All fields are
// unexported: mutation happens only through Builder observe methods,
// reads only through the Col accessor methods (the statflow analyzer
// additionally rejects any field write outside this package).
type colStats struct {
	count int64 // observations, including NULLs
	nulls int64

	hasInt         bool
	intMin, intMax int64

	hasFloat           bool
	floatMin, floatMax float64

	lenSum int64 // text/bytes lengths
	lenMax int64

	// The histogram holds exact counts for the first ≤ HistCap distinct
	// values: keys is their dictionary, and their counts are layers of
	// deltas (see the package doc). layers are sealed and may be shared
	// with other synopses; own is the Builder's layer, empty in a sealed
	// Table. maxCount is the largest key count. other counts
	// observations whose value is absent from the histogram (only
	// nonzero after overflow).
	keys     dict
	layers   []layer
	own      ownLayer
	maxCount int64
	other    int64
	// sketch is the linear-counting bitmap, allocated on overflow and
	// shared with the predecessor until ownSketch is set.
	sketch    []uint64
	ownSketch bool
}

// Value key encoding: one tag byte plus a canonical payload, the
// bytes the hash runs over. Ints and bools share a tag so engine
// KBool/KInt unify the way table storage does; floats that hold
// integral values stay distinct from ints. An int or float payload is
// its 8 bytes big-endian, and the dictionary keeps them as one word.
const (
	tagInt   = 'i'
	tagFloat = 'f'
	tagText  = 't'
	tagBytes = 'b'
)

// payload is a text or bytes key's payload; an int or float key
// passes an empty one with its word.
type payload interface{ ~string | ~[]byte }

func isWord(tag byte) bool { return tag == tagInt || tag == tagFloat }

// hash is the fixed hash of the encoded key tag+p. It is unseeded, so
// a synopsis — and every estimate and plan derived from it — is a pure
// function of the rows observed, in every process and across recovery.
// It is FNV-1a taken a word at a time over the encoded key (values run
// to hundreds of bytes), then one multiply-xorshift round: the sketch
// bit is the hash's low bits, which the FNV multiply alone leaves too
// regular for keys that differ only in their last bytes (consecutive
// integers overestimate by 20 %). The first word is the tag and the
// payload's first 7 bytes, so the key need not be built.
func hash[P payload](tag byte, p P) uint64 {
	h := uint64(fnvOffset)
	if len(p) >= 7 {
		w := uint64(tag)
		for i := 0; i < 7; i++ {
			w |= uint64(p[i]) << (8 * (i + 1))
		}
		h = (h ^ w) * fnvPrime
		for p = p[7:]; len(p) >= 8; p = p[8:] {
			w := uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
				uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
			h = (h ^ w) * fnvPrime
		}
	} else {
		h = (h ^ uint64(tag)) * fnvPrime
	}
	for i := 0; i < len(p); i++ {
		h = (h ^ uint64(p[i])) * fnvPrime
	}
	return mix(h)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return h ^ h>>33
}

// hashWord is hash of an int or float key, whose payload is w's 8
// bytes big-endian: the first word is the tag and w's top 7 bytes, the
// last byte w's lowest.
func hashWord(tag byte, w uint64) uint64 {
	h := (fnvOffset ^ (uint64(tag) | bits.ReverseBytes64(w)<<8)) * fnvPrime
	return mix((h ^ w&0xff) * fnvPrime)
}

// dict holds a column's admitted histogram keys, each once, numbered
// in admission order: the key admitted k-th has code k. Its arrays
// hold no pointers. A successor shares them and appends only past its
// own length, so a sealed dict's readers, bounded by that length, never
// see a write. Two successors of one dict would append at the same
// place; claim settles which one may: the first to add a key takes the
// shared arrays, and the other copies them first.
type dict struct {
	tags  []byte   // each code's key tag
	words []uint64 // int and float keys by code; nil until the column admits one
	ends  []uint32 // text and bytes keys' ends in arena by code; nil until the column admits one
	arena []byte
	// index is an open-addressed table of the codes by key hash: a
	// slot holds code+1 in its low 16 bits and the hash's top 16 bits
	// above them, and 0 when empty. It is copied before a commit first
	// writes it, and ownIndex set.
	index    []uint32
	ownIndex bool
	// claim is the number of codes written to the arrays this dict
	// shares; it may append to them in place only while that is its
	// own length.
	claim *atomic.Uint32
}

func (d *dict) size() int { return len(d.tags) }

// payloadOf returns a text or bytes key's payload.
func (d *dict) payloadOf(code int) []byte {
	lo := uint32(0)
	if code > 0 {
		lo = d.ends[code-1]
	}
	return d.arena[lo:d.ends[code]]
}

// hashOf returns the hash of code's key.
func (d *dict) hashOf(code int) uint64 {
	tag := d.tags[code]
	if isWord(tag) {
		return hashWord(tag, d.words[code])
	}
	return hash(tag, d.payloadOf(code))
}

// find returns the code of the key tag+w+p, whose hash is h, or -1.
func find[P payload](d *dict, h uint64, tag byte, w uint64, p P) int {
	if len(d.index) == 0 {
		return -1
	}
	mask := len(d.index) - 1
	top := uint32(h>>48) << 16
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := d.index[i]
		if s == 0 {
			return -1
		}
		if s&^0xffff != top {
			continue
		}
		code := int(s&0xffff) - 1
		if d.tags[code] != tag {
			continue
		}
		if isWord(tag) {
			if d.words[code] == w {
				return code
			}
		} else if string(d.payloadOf(code)) == string(p) {
			return code
		}
	}
}

// add admits the key tag+w+p, whose hash is h, and returns its code.
func add[P payload](d *dict, h uint64, tag byte, w uint64, p P) int {
	n := d.size()
	if d.claim == nil || !d.claim.CompareAndSwap(uint32(n), uint32(n+1)) {
		d.detach()
		d.claim = new(atomic.Uint32)
		d.claim.Store(uint32(n + 1))
	}
	if !d.ownIndex || 4*(n+1) > 3*len(d.index) {
		d.reindex()
	}
	d.tags = push(d.tags, tag)
	if isWord(tag) && d.words == nil {
		d.words = make([]uint64, n)
	}
	if !isWord(tag) && d.ends == nil {
		d.ends = make([]uint32, n)
	}
	if d.words != nil {
		d.words = push(d.words, w)
	}
	if d.ends != nil {
		d.arena = append(d.arena, p...)
		d.ends = push(d.ends, uint32(len(d.arena)))
	}
	d.slot(h, n)
	return n
}

// slot enters code, whose key's hash is h, in the index.
func (d *dict) slot(h uint64, code int) {
	mask := len(d.index) - 1
	i := int(h) & mask
	for d.index[i] != 0 {
		i = (i + 1) & mask
	}
	d.index[i] = uint32(h>>48)<<16 | uint32(code+1)
}

// detach gives d arrays of its own, copies of its keys: another dict
// has appended to the ones it shares.
func (d *dict) detach() {
	d.tags = slices.Clone(d.tags)
	d.words = slices.Clone(d.words)
	d.ends = slices.Clone(d.ends)
	d.arena = slices.Clone(d.arena)
}

// reindex gives d an index of its own with room for one more code: a
// copy of the shared one while that has the room, else a rehash of
// every key into one twice as large.
func (d *dict) reindex() {
	size := max(len(d.index), 8)
	for 4*(d.size()+1) > 3*size {
		size *= 2
	}
	d.ownIndex = true
	if size == len(d.index) {
		d.index = slices.Clone(d.index)
		return
	}
	d.index = make([]uint32, size)
	for code := 0; code < d.size(); code++ {
		d.slot(d.hashOf(code), code)
	}
}

// push appends v to s, doubling the backing array when it is full but
// never past HistCap elements, which no dict holds more of.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		t := make([]T, len(s), min(max(2*len(s), 8), HistCap))
		copy(t, s)
		s = t
	}
	return append(s, v)
}

// layer is one generation of histogram count deltas, keyed by
// dictionary code. Every delta is positive: a key is in the histogram
// iff some layer holds its code. A dense layer (codes nil) holds a
// delta for each code from lo, 0 for the codes it does not hold; a
// sparse one lists its codes in ascending order. keys is the number of
// codes the layer holds.
type layer struct {
	codes  []uint16
	deltas []int64
	lo     int32
	keys   int32
}

// newLayer allocates a layer for keys codes from lo to hi: dense when
// that is no larger than the sparse list.
func newLayer(keys, lo, hi int) layer {
	if 4*(hi-lo+1) <= 5*keys {
		return layer{deltas: make([]int64, hi-lo+1), lo: int32(lo)}
	}
	return layer{codes: make([]uint16, 0, keys), deltas: make([]int64, 0, keys)}
}

// put sets code's delta; a sparse layer takes codes in ascending order.
func (l *layer) put(code int, d int64) {
	l.keys++
	if l.codes == nil {
		l.deltas[code-int(l.lo)] = d
		return
	}
	l.codes = append(l.codes, uint16(code))
	l.deltas = append(l.deltas, d)
}

// get returns code's delta, 0 if the layer does not hold it.
func (l *layer) get(code int) int64 {
	if l.codes == nil {
		if i := code - int(l.lo); uint(i) < uint(len(l.deltas)) {
			return l.deltas[i]
		}
		return 0
	}
	if i, ok := slices.BinarySearch(l.codes, uint16(code)); ok {
		return l.deltas[i]
	}
	return 0
}

// code returns the code at position i of the layer (dense layers have
// a position per code from lo), or HistCap past the end.
func (l *layer) code(i int) int {
	switch {
	case i >= len(l.deltas):
		return HistCap
	case l.codes == nil:
		return int(l.lo) + i
	default:
		return int(l.codes[i])
	}
}

// merge returns a new layer holding a's and b's deltas summed; it
// walks their codes in order twice, to size the layer and to fill it.
func merge(a, b *layer) layer {
	walk := func(emit func(code int, d int64)) {
		for i, j := 0, 0; i < len(a.deltas) || j < len(b.deltas); {
			ca, cb := a.code(i), b.code(j)
			code, d := min(ca, cb), int64(0)
			if ca == code {
				d += a.deltas[i]
				i++
			}
			if cb == code {
				d += b.deltas[j]
				j++
			}
			if d != 0 {
				emit(code, d)
			}
		}
	}
	keys, lo, hi := 0, -1, 0
	walk(func(code int, _ int64) {
		if lo < 0 {
			lo = code
		}
		keys, hi = keys+1, code
	})
	l := newLayer(keys, lo, hi)
	walk(l.put)
	return l
}

// ownLayer is a Builder's layer while it is written: its codes and
// deltas in an open-addressed table keyed by code.
type ownLayer struct {
	slots []ownSlot
	n     int
}

type ownSlot struct {
	code1 int32 // code+1; 0 for an empty slot
	delta int64
}

// slot returns the slot holding code, or the empty one it goes in.
func (o *ownLayer) slot(code int) *ownSlot {
	mask := len(o.slots) - 1
	for i := code & mask; ; i = (i + 1) & mask {
		if s := &o.slots[i]; s.code1 == 0 || int(s.code1) == code+1 {
			return s
		}
	}
}

// add counts one observation of code.
func (o *ownLayer) add(code int) {
	if len(o.slots) > 0 {
		if s := o.slot(code); s.code1 != 0 {
			s.delta++
			return
		}
	}
	if 4*(o.n+1) > 3*len(o.slots) {
		old := o.slots
		o.slots = make([]ownSlot, max(2*len(old), 8))
		for _, s := range old {
			if s.code1 != 0 {
				*o.slot(int(s.code1) - 1) = s
			}
		}
	}
	*o.slot(code) = ownSlot{code1: int32(code + 1), delta: 1}
	o.n++
}

// sealed returns code's sealed histogram count: the sum of its deltas.
func (c *colStats) sealed(code int) int64 {
	var n int64
	for i := range c.layers {
		n += c.layers[i].get(code)
	}
	return n
}

// observeKey folds one non-NULL value, the key tag+w+p whose hash is h,
// into the histogram and, if overflowed, the distinct sketch. A key is
// in the histogram iff the dictionary holds it.
func observeKey[P payload](c *colStats, h uint64, tag byte, w uint64, p P) {
	c.count++
	code := find(&c.keys, h, tag, w, p)
	if code < 0 && c.keys.size() < HistCap {
		code = add(&c.keys, h, tag, w, p)
	}
	if code >= 0 {
		c.own.add(code)
	} else {
		if c.sketch == nil {
			// Overflow: seed the sketch with every value seen so far,
			// then stop admitting new histogram keys.
			c.sketch, c.ownSketch = make([]uint64, sketchWords), true
			for k := 0; k < c.keys.size(); k++ {
				c.mark(c.keys.hashOf(k))
			}
		}
		c.other++
	}
	if c.sketch != nil {
		c.mark(h)
	}
}

// seal folds the Builder's layer into the histogram: it raises the
// largest count by the touched keys' new totals, then merges the top
// layer down while it holds at least half as many keys as the layer
// below. The merged layers are new; sealed ones are never written.
func (c *colStats) seal() {
	c.ownSketch, c.keys.ownIndex = false, false
	own := c.own
	c.own = ownLayer{}
	if own.n == 0 {
		return
	}
	codes := make([]int, 0, own.n)
	for _, s := range own.slots {
		if s.code1 != 0 {
			codes = append(codes, int(s.code1)-1)
		}
	}
	slices.Sort(codes)
	top := newLayer(len(codes), codes[0], codes[len(codes)-1])
	for _, code := range codes {
		d := own.slot(code).delta
		top.put(code, d)
		if n := c.sealed(code) + d; n > c.maxCount {
			c.maxCount = n
		}
	}
	layers := make([]layer, len(c.layers), len(c.layers)+1)
	copy(layers, c.layers)
	for len(layers) > 0 && 2*top.keys >= layers[len(layers)-1].keys {
		top = merge(&layers[len(layers)-1], &top)
		layers = layers[:len(layers)-1]
	}
	c.layers = append(layers, top)
}

// mark sets the bit of the value whose hash is h in the
// linear-counting bitmap. A sketch shared with the predecessor is
// copied before its first bit changes.
func (c *colStats) mark(h uint64) {
	bit := h % (sketchWords * 64)
	w, m := bit/64, uint64(1)<<(bit%64)
	if c.sketch[w]&m != 0 {
		return
	}
	if !c.ownSketch {
		c.sketch, c.ownSketch = append([]uint64(nil), c.sketch...), true
	}
	c.sketch[w] |= m
}

// distinct estimates the number of distinct non-NULL values: exact
// while the histogram holds every value, linear counting afterwards.
func (c *colStats) distinct() int64 {
	nkeys := int64(c.keys.size())
	if c.sketch == nil {
		return nkeys
	}
	m := float64(sketchWords * 64)
	ones := 0
	for _, w := range c.sketch {
		ones += bits.OnesCount64(w)
	}
	empty := m - float64(ones)
	if empty < 1 {
		empty = 1
	}
	est := int64(math.Round(m * math.Log(m/empty)))
	if est < nkeys {
		est = nkeys
	}
	return est
}

// Table is an immutable, sealed synopsis: per-column statistics plus
// the total row count. The zero value (or Empty()) describes an empty
// table.
type Table struct {
	rows int64
	cols []*colStats
}

// Empty returns the synopsis of an empty table.
func Empty() *Table { return &Table{} }

// Rows returns the number of rows observed.
func (t *Table) Rows() int64 {
	if t == nil {
		return 0
	}
	return t.rows
}

// NumCols returns how many columns have been observed.
func (t *Table) NumCols() int {
	if t == nil {
		return 0
	}
	return len(t.cols)
}

// Col returns the accessor for column i; it is valid (and reports
// zeros) for columns never observed.
func (t *Table) Col(i int) Col {
	if t == nil || i < 0 || i >= len(t.cols) {
		return Col{}
	}
	return Col{c: t.cols[i]}
}

// Col is a read-only view of one column's statistics.
type Col struct{ c *colStats }

// Count returns the number of observations (including NULLs).
func (c Col) Count() int64 {
	if c.c == nil {
		return 0
	}
	return c.c.count + c.c.nulls
}

// Nulls returns the number of NULL observations.
func (c Col) Nulls() int64 {
	if c.c == nil {
		return 0
	}
	return c.c.nulls
}

// Distinct estimates the number of distinct non-NULL values.
func (c Col) Distinct() int64 {
	if c.c == nil {
		return 0
	}
	return c.c.distinct()
}

// Exact reports whether the histogram still holds every distinct value
// (equality and range counts are then exact, not estimates).
func (c Col) Exact() bool { return c.c != nil && c.c.sketch == nil }

// IntRange returns the exact min/max over integer observations; ok is
// false if no integers were observed.
func (c Col) IntRange() (min, max int64, ok bool) {
	if c.c == nil || !c.c.hasInt {
		return 0, 0, false
	}
	return c.c.intMin, c.c.intMax, true
}

// FloatRange returns the exact min/max over float observations.
func (c Col) FloatRange() (min, max float64, ok bool) {
	if c.c == nil || !c.c.hasFloat {
		return 0, 0, false
	}
	return c.c.floatMin, c.c.floatMax, true
}

// AvgLen returns the mean text/bytes length observed, or 0.
func (c Col) AvgLen() float64 {
	if c.c == nil || c.c.count == 0 {
		return 0
	}
	return float64(c.c.lenSum) / float64(c.c.count)
}

// MaxLen returns the largest text/bytes length observed.
func (c Col) MaxLen() int64 {
	if c.c == nil {
		return 0
	}
	return c.c.lenMax
}

// eq returns the estimated number of rows equal to the key tag+w+p,
// whose hash is h. exact reports whether the count came straight from
// the histogram.
func eq[P payload](c Col, h uint64, tag byte, w uint64, p P) (n int64, exact bool) {
	if c.c == nil {
		return 0, false
	}
	if code := find(&c.c.keys, h, tag, w, p); code >= 0 {
		return c.c.sealed(code), c.c.sketch == nil
	}
	if c.c.sketch == nil {
		// Histogram is complete and the value is absent.
		return 0, true
	}
	// Value fell past the cap: spread the overflow mass uniformly over
	// the distinct values outside the histogram.
	outside := c.c.distinct() - int64(c.c.keys.size())
	if outside < 1 {
		outside = 1
	}
	n = c.c.other / outside
	if n < 1 {
		n = 1
	}
	return n, false
}

// EqInt estimates rows where the column equals v (ints and bools).
func (c Col) EqInt(v int64) (int64, bool) {
	return eq(c, hashWord(tagInt, uint64(v)), tagInt, uint64(v), "")
}

// EqFloat estimates rows where the column equals v.
func (c Col) EqFloat(v float64) (int64, bool) {
	w := math.Float64bits(v)
	return eq(c, hashWord(tagFloat, w), tagFloat, w, "")
}

// EqText estimates rows where the column equals v.
func (c Col) EqText(v string) (int64, bool) { return eq(c, hash(tagText, v), tagText, 0, v) }

// EqBytes estimates rows where the column equals v.
func (c Col) EqBytes(v []byte) (int64, bool) { return eq(c, hash(tagBytes, v), tagBytes, 0, v) }

// IntRangeCount estimates rows with lo ≤ value ≤ hi over integer
// observations. While the histogram is exact the count is a histogram
// sum; afterwards it interpolates uniformly over [min,max].
func (c Col) IntRangeCount(lo, hi int64) (int64, bool) {
	if c.c == nil || !c.c.hasInt || lo > hi {
		return 0, c.c != nil && c.c.sketch == nil
	}
	if c.c.sketch == nil {
		var n int64
		keys := &c.c.keys
		for li := range c.c.layers {
			l := &c.c.layers[li]
			for i, d := range l.deltas {
				code := l.code(i)
				if d == 0 || keys.tags[code] != tagInt {
					continue
				}
				if v := int64(keys.words[code]); v >= lo && v <= hi {
					n += d
				}
			}
		}
		return n, true
	}
	span := float64(c.c.intMax-c.c.intMin) + 1
	clo, chi := lo, hi
	if clo < c.c.intMin {
		clo = c.c.intMin
	}
	if chi > c.c.intMax {
		chi = c.c.intMax
	}
	if clo > chi {
		return 0, false
	}
	frac := (float64(chi-clo) + 1) / span
	return int64(frac * float64(c.c.count)), false
}

// MaxFreq returns the largest exact histogram bucket — the planner's
// worst-case rows-per-probe for an equality join on this column.
func (c Col) MaxFreq() int64 {
	if c.c == nil {
		return 0
	}
	max := c.c.maxCount
	// Overflow mass could hide a heavier value; be conservative.
	if c.c.other > 0 {
		outside := c.c.distinct() - int64(c.c.keys.size())
		if outside < 1 {
			outside = 1
		}
		if avg := c.c.other / outside; avg > max {
			max = avg
		}
	}
	return max
}

// String summarizes the synopsis for diagnostics.
func (t *Table) String() string {
	if t == nil {
		return "synopsis(nil)"
	}
	s := fmt.Sprintf("synopsis(rows=%d", t.rows)
	for i := range t.cols {
		c := t.Col(i)
		s += fmt.Sprintf(" c%d[n=%d null=%d d=%d exact=%v]",
			i, c.Count(), c.Nulls(), c.Distinct(), c.Exact())
	}
	return s + ")"
}

// Builder accumulates observations for a successor synopsis. Obtain
// one with Extend, observe every inserted row's values in column
// order, and Seal it into the successor table state. A Builder must
// not be used after Seal, and is not safe for concurrent use (the
// engine's writer is serialized).
type Builder struct {
	rows   int64
	cols   []*colStats
	sealed bool
}

// Extend starts a Builder for prev's successor (prev may be nil or
// Empty). The successor shares prev's dictionaries, histogram layers
// and sketches and writes only state of its own, so readers of the
// predecessor snapshot are never disturbed.
func Extend(prev *Table) *Builder {
	b := &Builder{}
	if prev != nil {
		b.rows = prev.rows
		cs := make([]colStats, len(prev.cols))
		b.cols = make([]*colStats, len(prev.cols))
		for i, c := range prev.cols {
			cs[i] = *c
			b.cols[i] = &cs[i]
		}
	}
	return b
}

// col grows the column vector on demand (loaders discover width from
// the first row).
func (b *Builder) col(i int) *colStats {
	for len(b.cols) <= i {
		b.cols = append(b.cols, &colStats{})
	}
	return b.cols[i]
}

// Row marks one complete row observed. Call once per inserted row,
// after observing its values.
func (b *Builder) Row() { b.rows++ }

// Null records a NULL in column i.
func (b *Builder) Null(i int) { b.col(i).nulls++ }

// Int records an integer (or boolean) value in column i.
func (b *Builder) Int(i int, v int64) {
	c := b.col(i)
	if !c.hasInt || v < c.intMin {
		c.intMin = v
	}
	if !c.hasInt || v > c.intMax {
		c.intMax = v
	}
	c.hasInt = true
	observeKey(c, hashWord(tagInt, uint64(v)), tagInt, uint64(v), "")
}

// Float records a float value in column i.
func (b *Builder) Float(i int, v float64) {
	c := b.col(i)
	if !c.hasFloat || v < c.floatMin {
		c.floatMin = v
	}
	if !c.hasFloat || v > c.floatMax {
		c.floatMax = v
	}
	c.hasFloat = true
	w := math.Float64bits(v)
	observeKey(c, hashWord(tagFloat, w), tagFloat, w, "")
}

// Text records a text value in column i.
func (b *Builder) Text(i int, v string) {
	c := b.col(i)
	c.lenSum += int64(len(v))
	if int64(len(v)) > c.lenMax {
		c.lenMax = int64(len(v))
	}
	observeKey(c, hash(tagText, v), tagText, 0, v)
}

// Bytes records a bytes value in column i.
func (b *Builder) Bytes(i int, v []byte) {
	c := b.col(i)
	c.lenSum += int64(len(v))
	if int64(len(v)) > c.lenMax {
		c.lenMax = int64(len(v))
	}
	observeKey(c, hash(tagBytes, v), tagBytes, 0, v)
}

// Seal freezes the Builder into an immutable Table. The Builder must
// not be reused.
func (b *Builder) Seal() *Table {
	if b.sealed {
		panic("synopsis: Builder sealed twice")
	}
	b.sealed = true
	for _, c := range b.cols {
		c.seal()
	}
	return &Table{rows: b.rows, cols: b.cols}
}

// Equal reports whether two synopses agree on every statistic — used
// by durability tests to compare a recovered synopsis against a
// from-scratch rebuild.
func Equal(a, b *Table) bool {
	if a.Rows() != b.Rows() || a.NumCols() != b.NumCols() {
		return false
	}
	for i := 0; i < a.NumCols(); i++ {
		ca, cb := a.cols[i], b.cols[i]
		if ca.count != cb.count || ca.nulls != cb.nulls ||
			ca.hasInt != cb.hasInt || ca.intMin != cb.intMin || ca.intMax != cb.intMax ||
			ca.hasFloat != cb.hasFloat ||
			(ca.hasFloat && (ca.floatMin != cb.floatMin || ca.floatMax != cb.floatMax)) ||
			ca.lenSum != cb.lenSum || ca.lenMax != cb.lenMax ||
			ca.other != cb.other || ca.keys.size() != cb.keys.size() ||
			(ca.sketch == nil) != (cb.sketch == nil) {
			return false
		}
		for w := range ca.sketch {
			if ca.sketch[w] != cb.sketch[w] {
				return false
			}
		}
		// As many keys, and each of a's counted alike in b: the
		// histograms hold the same counts, however they are coded and
		// layered.
		for code := 0; code < ca.keys.size(); code++ {
			tag, w, p := ca.keys.tags[code], uint64(0), []byte(nil)
			if isWord(tag) {
				w = ca.keys.words[code]
			} else {
				p = ca.keys.payloadOf(code)
			}
			other := find(&cb.keys, ca.keys.hashOf(code), tag, w, p)
			if other < 0 || ca.sealed(code) != cb.sealed(other) {
				return false
			}
		}
	}
	return true
}

// DebugDistinct is a test hook: the true distinct count fed through a
// builder versus its estimate, as a q-error string.
func DebugDistinct(truth int64, c Col) string {
	est := c.Distinct()
	q := qerr(float64(truth), float64(est))
	return "distinct truth=" + strconv.FormatInt(truth, 10) +
		" est=" + strconv.FormatInt(est, 10) +
		" q=" + strconv.FormatFloat(q, 'f', 2, 64)
}

func qerr(a, b float64) float64 {
	if a < 1 {
		a = 1
	}
	if b < 1 {
		b = 1
	}
	if a > b {
		return a / b
	}
	return b / a
}
