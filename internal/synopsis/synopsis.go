// Package synopsis maintains per-table, per-column statistics used by
// the cost-based planner: row counts, null counts, exact min/max for
// numeric columns, value-length sketches, and a capped exact
// value-frequency histogram with a linear-counting distinct sketch for
// columns whose cardinality exceeds the cap.
//
// A Table is immutable once sealed. The engine's copy-on-write table
// states each carry one: a write clones the accumulator (Extend),
// observes the new rows, and seals the successor, so a synopsis is
// always exactly consistent with the snapshot that carries it —
// including across WAL recovery and checkpoint reload, which replay
// inserts through the same observe path as live writes.
//
// The per-path statistics of the paper's shredded stores fall out of
// the generic machinery: the node table's path_id column histogram is
// the per-path node count, parent→child fanout for paths p→c is
// N(c)/N(p) over that histogram, and distinct-value counts per column
// drive equality selectivity (see DESIGN.md §13).
package synopsis

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
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

	// hist maps encoded values to exact counts for the first ≤ HistCap
	// distinct values; other counts observations whose value is absent
	// from hist (only nonzero after overflow).
	hist  map[string]int64
	other int64
	// sketch is the linear-counting bitmap, allocated on overflow.
	sketch []uint64
}

// clone deep-copies the accumulator for a copy-on-write successor.
func (c *colStats) clone() *colStats {
	n := *c
	n.hist = make(map[string]int64, len(c.hist))
	for k, v := range c.hist {
		n.hist[k] = v
	}
	if c.sketch != nil {
		n.sketch = append([]uint64(nil), c.sketch...)
	}
	return &n
}

// observe folds one non-NULL encoded value into the histogram and, if
// overflowed, the distinct sketch.
func (c *colStats) observe(key []byte) {
	c.count++
	if n, ok := c.hist[string(key)]; ok {
		c.hist[string(key)] = n + 1
		if c.sketch != nil {
			c.mark(key)
		}
		return
	}
	if len(c.hist) < HistCap {
		if c.hist == nil {
			c.hist = make(map[string]int64)
		}
		c.hist[string(key)] = 1
		if c.sketch != nil {
			c.mark(key)
		}
		return
	}
	if c.sketch == nil {
		// Overflow: seed the sketch with every value seen so far, then
		// stop admitting new histogram keys.
		c.sketch = make([]uint64, sketchWords)
		for k := range c.hist {
			c.mark([]byte(k))
		}
	}
	c.mark(key)
	c.other++
}

// mark sets the value's bit in the linear-counting bitmap. The hash
// is fixed and unseeded, so a synopsis — and every estimate and plan
// derived from it — is a pure function of the rows observed, in every
// process and across recovery. It is FNV-1a taken a word at a time
// (mark runs once per value on the load path, and text values run to
// hundreds of bytes), then one multiply-xorshift round: the bit index
// is the hash's low bits, which the FNV multiply alone leaves too
// regular for keys that differ only in their last bytes (consecutive
// integers overestimate by 20 %).
func (c *colStats) mark(key []byte) {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for ; len(key) >= 8; key = key[8:] {
		h = (h ^ binary.LittleEndian.Uint64(key)) * prime
	}
	for _, b := range key {
		h = (h ^ uint64(b)) * prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	bit := h % (sketchWords * 64)
	c.sketch[bit/64] |= 1 << (bit % 64)
}

// distinct estimates the number of distinct non-NULL values: exact
// while the histogram holds every value, linear counting afterwards.
func (c *colStats) distinct() int64 {
	if c.sketch == nil {
		return int64(len(c.hist))
	}
	m := float64(sketchWords * 64)
	ones := 0
	for _, w := range c.sketch {
		ones += popcount(w)
	}
	empty := m - float64(ones)
	if empty < 1 {
		empty = 1
	}
	est := int64(math.Round(m * math.Log(m/empty)))
	if min := int64(len(c.hist)); est < min {
		est = min
	}
	return est
}

func popcount(w uint64) int {
	n := 0
	for w != 0 {
		w &= w - 1
		n++
	}
	return n
}

// Value key encoding: one tag byte plus a canonical payload. Ints and
// bools share a tag so engine KBool/KInt unify the way table storage
// does; floats that hold integral values stay distinct from ints.
const (
	tagInt   = 'i'
	tagFloat = 'f'
	tagText  = 't'
	tagBytes = 'b'
)

func keyInt(dst []byte, v int64) []byte {
	dst = append(dst, tagInt)
	return binary.BigEndian.AppendUint64(dst, uint64(v))
}

func keyFloat(dst []byte, v float64) []byte {
	dst = append(dst, tagFloat)
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

func keyText(dst []byte, v string) []byte {
	dst = append(dst, tagText)
	return append(dst, v...)
}

func keyBytes(dst []byte, v []byte) []byte {
	dst = append(dst, tagBytes)
	return append(dst, v...)
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

// eq returns the estimated number of rows equal to the encoded key.
// exact reports whether the count came straight from the histogram.
func (c Col) eq(key []byte) (n int64, exact bool) {
	if c.c == nil {
		return 0, false
	}
	if n, ok := c.c.hist[string(key)]; ok {
		return n, c.c.sketch == nil
	}
	if c.c.sketch == nil {
		// Histogram is complete and the value is absent.
		return 0, true
	}
	// Value fell past the cap: spread the overflow mass uniformly over
	// the distinct values outside the histogram.
	outside := c.c.distinct() - int64(len(c.c.hist))
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
func (c Col) EqInt(v int64) (int64, bool) { return c.eq(keyInt(nil, v)) }

// EqFloat estimates rows where the column equals v.
func (c Col) EqFloat(v float64) (int64, bool) { return c.eq(keyFloat(nil, v)) }

// EqText estimates rows where the column equals v.
func (c Col) EqText(v string) (int64, bool) { return c.eq(keyText(nil, v)) }

// EqBytes estimates rows where the column equals v.
func (c Col) EqBytes(v []byte) (int64, bool) { return c.eq(keyBytes(nil, v)) }

// IntRangeCount estimates rows with lo ≤ value ≤ hi over integer
// observations. While the histogram is exact the count is a histogram
// sum; afterwards it interpolates uniformly over [min,max].
func (c Col) IntRangeCount(lo, hi int64) (int64, bool) {
	if c.c == nil || !c.c.hasInt || lo > hi {
		return 0, c.c != nil && c.c.sketch == nil
	}
	if c.c.sketch == nil {
		var n int64
		var buf [9]byte
		for v := range c.c.hist {
			if len(v) == 9 && v[0] == tagInt {
				copy(buf[:], v)
				iv := int64(binary.BigEndian.Uint64(buf[1:]))
				if iv >= lo && iv <= hi {
					n += c.c.hist[v]
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
	var max int64
	for _, n := range c.c.hist {
		if n > max {
			max = n
		}
	}
	// Overflow mass could hide a heavier value; be conservative.
	if c.c.other > 0 {
		outside := c.c.distinct() - int64(len(c.c.hist))
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
	buf    []byte
}

// Extend clones prev (which may be nil or Empty) into a Builder. The
// clone is deep for histogram state, so readers of the predecessor
// snapshot are never disturbed.
func Extend(prev *Table) *Builder {
	b := &Builder{}
	if prev != nil {
		b.rows = prev.rows
		b.cols = make([]*colStats, len(prev.cols))
		for i, c := range prev.cols {
			b.cols[i] = c.clone()
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
	b.buf = keyInt(b.buf[:0], v)
	c.observe(b.buf)
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
	b.buf = keyFloat(b.buf[:0], v)
	c.observe(b.buf)
}

// Text records a text value in column i.
func (b *Builder) Text(i int, v string) {
	c := b.col(i)
	c.lenSum += int64(len(v))
	if int64(len(v)) > c.lenMax {
		c.lenMax = int64(len(v))
	}
	b.buf = keyText(b.buf[:0], v)
	c.observe(b.buf)
}

// Bytes records a bytes value in column i.
func (b *Builder) Bytes(i int, v []byte) {
	c := b.col(i)
	c.lenSum += int64(len(v))
	if int64(len(v)) > c.lenMax {
		c.lenMax = int64(len(v))
	}
	b.buf = keyBytes(b.buf[:0], v)
	c.observe(b.buf)
}

// Seal freezes the Builder into an immutable Table. The Builder must
// not be reused.
func (b *Builder) Seal() *Table {
	if b.sealed {
		panic("synopsis: Builder sealed twice")
	}
	b.sealed = true
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
			ca.other != cb.other || len(ca.hist) != len(cb.hist) {
			return false
		}
		for k, v := range ca.hist {
			if cb.hist[k] != v {
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
