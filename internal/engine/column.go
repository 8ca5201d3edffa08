package engine

import (
	"bytes"
	"cmp"
	"math"
	"unsafe"
)

// A table state keeps its rows as one column per schema column, each a
// run of typed, pointer-free chunks: the garbage collector marks a
// chunk's arrays without scanning them, and a filter reads the one
// cell it tests, not a row of Values. The chunks are append-only. A
// successor state shares every full chunk with its predecessor and
// appends to the shared tail's arrays only past the predecessor's
// length — the predecessor's readers are bounded by that length, and
// the single writer is serialized by writeMu — so no cell a published
// state can read is ever written again. The one exception is a bitmap
// word, which holds the bits of old cells as well as new ones: a
// successor that sets a bit in its tail copies the tail's bitmaps
// first. A chunk holds at most chunkCells cells and its arrays never
// grow past that, so an append never reallocates a full chunk.

const (
	chunkShift = 12
	chunkCells = 1 << chunkShift // cells of a full chunk
	chunkMask  = chunkCells - 1
)

// column is one column of one table state: its cells in row-id order,
// chunkCells to a chunk in full, the rest in tail.
type column struct {
	typ  Type
	full []chunk
	tail chunk
}

// chunk is up to chunkCells consecutive cells of one column.
type chunk struct {
	// words holds a TInt column's values, and a TFloat column's as the
	// float's bits, or the integer itself where ints has the cell's bit.
	words []int64
	// ends and data hold a TText or TBytes column's payloads back to
	// back in data, cell i's ending at ends[i] and starting where cell
	// i-1's ends (at 0 for the first).
	ends []uint32
	data []byte
	// nulls has a bit set for every NULL cell, ints for every KInt cell
	// of a TFloat column; each is nil until the chunk holds such a cell,
	// and shorter than the chunk while its last cells have no bit set.
	nulls []uint64
	ints  []uint64
}

// at locates row id's cell: its chunk and its position there.
func (c *column) at(id int64) (*chunk, int) {
	if k := int(id >> chunkShift); k < len(c.full) {
		return &c.full[k], int(id & chunkMask)
	}
	return &c.tail, int(id & chunkMask)
}

// cells returns the number of cells in the chunk.
func (ch *chunk) cells(t Type) int {
	if t == TText || t == TBytes {
		return len(ch.ends)
	}
	return len(ch.words)
}

func hasBit(bits []uint64, i int) bool {
	w := i >> 6
	return w < len(bits) && bits[w]>>(i&63)&1 != 0
}

// span returns where cell i's payload lies in data.
func (ch *chunk) span(i int) (lo, hi uint32) {
	if i > 0 {
		lo = ch.ends[i-1]
	}
	return lo, ch.ends[i]
}

// bytesAt is cell i's payload as a view into the immutable data: its
// capacity ends where it does, so an append to it never reaches the
// next cell's bytes.
func (ch *chunk) bytesAt(i int) []byte {
	lo, hi := ch.span(i)
	return ch.data[lo:hi:hi]
}

// textAt is cell i's payload as a string sharing the immutable data.
func (ch *chunk) textAt(i int) string {
	lo, hi := ch.span(i)
	if lo == hi {
		return ""
	}
	return unsafe.String(&ch.data[lo], hi-lo)
}

// value materialises row id's cell. Text and bytes are views into the
// chunk's data, which is never written again: they copy no payload.
func (c *column) value(id int64) Value {
	ch, i := c.at(id)
	if hasBit(ch.nulls, i) {
		return Null
	}
	switch c.typ {
	case TInt:
		return Value{Kind: KInt, I: ch.words[i]}
	case TFloat:
		if hasBit(ch.ints, i) {
			return Value{Kind: KInt, I: ch.words[i]}
		}
		return Value{Kind: KFloat, F: math.Float64frombits(uint64(ch.words[i]))}
	case TText:
		return Value{Kind: KText, S: ch.textAt(i)}
	}
	return Value{Kind: KBytes, B: ch.bytesAt(i)}
}

// int returns row id's cell where it holds a KInt; ok is false for
// NULL and every other kind.
func (c *column) int(id int64) (v int64, ok bool) {
	ch, i := c.at(id)
	switch {
	case hasBit(ch.nulls, i):
		return 0, false
	case c.typ == TInt, c.typ == TFloat && hasBit(ch.ints, i):
		return ch.words[i], true
	}
	return 0, false
}

// order compares row id's cell with v as keyOrder does.
func (c *column) order(id int64, v *Value) int {
	ch, i := c.at(id)
	switch {
	case hasBit(ch.nulls, i):
		return cmp.Compare(1, keyTag(*v))
	case c.typ == TInt && v.Kind == KInt:
		return cmp.Compare(ch.words[i], v.I)
	case c.typ == TBytes && v.Kind == KBytes:
		return bytes.Compare(ch.bytesAt(i), v.B)
	}
	return keyOrder(c.value(id), *v)
}

// ascendsAt reports whether row id's cell keeps the column strictly
// ascending after row id-1's, as ascends compares them.
func (c *column) ascendsAt(id int64) bool {
	if c.typ == TInt && id > 0 {
		ca, i := c.at(id - 1)
		cb, j := c.at(id)
		if !hasBit(ca.nulls, i) && !hasBit(cb.nulls, j) {
			return ca.words[i] < cb.words[j]
		}
	}
	prev := Null
	if id > 0 {
		prev = c.value(id - 1)
	}
	return ascends(prev, c.value(id), id == 0)
}

// compare orders the cells of rows a and b as keyOrder does.
func (c *column) compare(a, b int64) int {
	if c.typ == TInt {
		ca, i := c.at(a)
		cb, j := c.at(b)
		if !hasBit(ca.nulls, i) && !hasBit(cb.nulls, j) {
			return cmp.Compare(ca.words[i], cb.words[j])
		}
	}
	return keyOrder(c.value(a), c.value(b))
}

// appender extends a copy of a published column, one cell at a time.
// The copy's arrays are appended to in place, past every published
// length, and its tail's bitmaps are copied before a bit is set in
// them.
type appender struct {
	c    column
	bits tailBits
}

// add copies v into the column's next cell.
func (a *appender) add(v *Value) {
	t := &a.c.tail
	n := t.cells(a.c.typ)
	if n == chunkCells {
		a.bits.flush(t)
		a.c.full = append(a.c.full, t.sealed())
		*t, n, a.bits = chunk{}, 0, tailBits{own: true}
	}
	switch a.c.typ {
	case TInt, TFloat:
		w := v.I
		switch {
		case v.Kind == KNull:
			a.bits.set(t, n, true)
		case v.Kind == KFloat:
			w = int64(math.Float64bits(v.F))
		case a.c.typ == TFloat:
			a.bits.set(t, n, false)
		}
		t.words = appendCell(t.words, w)
	default:
		switch {
		case v.Kind == KNull:
			a.bits.set(t, n, true)
		case a.c.typ == TText:
			t.data = append(t.data, v.S...)
		default:
			t.data = append(t.data, v.B...)
		}
		t.ends = appendCell(t.ends, uint32(len(t.data)))
	}
}

// column returns the extended column.
func (a *appender) column() column {
	a.bits.flush(&a.c.tail)
	return a.c
}

// appendCell appends x to a chunk's array, growing it by doubling up
// to chunkCells and no further, so a full chunk's array is exactly
// full.
func appendCell[T int64 | uint32](s []T, x T) []T {
	if len(s) == cap(s) {
		g := make([]T, len(s), min(max(2*cap(s), 16), chunkCells))
		copy(g, s)
		s = g
	}
	return append(s, x)
}

// tailBits are the bitmaps of a tail that a commit extends: the
// tail's, shared with its predecessor, until the commit sets a bit,
// then a copy the commit owns.
type tailBits struct {
	nulls, ints []uint64
	own         bool
}

// set sets cell i's NULL bit (null) or integer bit in the bitmaps of
// tail t.
func (b *tailBits) set(t *chunk, i int, null bool) {
	if !b.own {
		b.nulls, b.ints, b.own = cloneBits(t.nulls), cloneBits(t.ints), true
	}
	if null {
		b.nulls = withBit(b.nulls, i)
	} else {
		b.ints = withBit(b.ints, i)
	}
}

// flush hands tail t the bitmaps, where the commit owns them.
func (b *tailBits) flush(t *chunk) {
	if b.own {
		t.nulls, t.ints = b.nulls, b.ints
	}
}

// sealed is the chunk as a full chunk keeps it: its payload array
// trimmed to its length where growth left much room past it.
func (ch chunk) sealed() chunk {
	if cap(ch.data)-len(ch.data) > len(ch.data)/8 {
		ch.data = append(make([]byte, 0, len(ch.data)), ch.data...)
	}
	return ch
}

// cloneBits copies a bitmap, with room for a word more.
func cloneBits(bits []uint64) []uint64 {
	return append(make([]uint64, 0, len(bits)+1), bits...)
}

// withBit sets bit i of bits, which the caller owns, lengthening it as
// needed.
func withBit(bits []uint64, i int) []uint64 {
	for len(bits) <= i>>6 {
		bits = append(bits, 0)
	}
	bits[i>>6] |= 1 << (i & 63)
	return bits
}

// ColumnReader reads one column of one published state of a table.
// The state is immutable, so the reader is too: later inserts do not
// change what it reads.
type ColumnReader struct {
	c *column
	n int
}

// Len returns the number of rows the reader covers.
func (r ColumnReader) Len() int { return r.n }

// Value returns row id's value. Text and bytes share the store's
// memory, which is never written again; a caller must not write into
// a bytes value.
func (r ColumnReader) Value(id int) Value { return r.c.value(int64(id)) }
