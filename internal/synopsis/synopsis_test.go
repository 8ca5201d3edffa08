package synopsis

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestEmpty(t *testing.T) {
	s := Empty()
	if s.Rows() != 0 || s.NumCols() != 0 {
		t.Fatalf("empty synopsis not empty: %v", s)
	}
	c := s.Col(3)
	if c.Count() != 0 || c.Distinct() != 0 || c.Nulls() != 0 {
		t.Fatalf("out-of-range column not zero: %v", c)
	}
	if n, _ := c.EqInt(7); n != 0 {
		t.Fatalf("EqInt on empty = %d, want 0", n)
	}
}

func TestExactHistogram(t *testing.T) {
	b := Extend(nil)
	for i := 0; i < 100; i++ {
		b.Int(0, int64(i%10)) // 10 distinct, 10 each
		b.Text(1, fmt.Sprintf("v%d", i))
		if i%4 == 0 {
			b.Null(2)
		} else {
			b.Int(2, 42)
		}
		b.Row()
	}
	s := b.Seal()
	if s.Rows() != 100 {
		t.Fatalf("rows = %d, want 100", s.Rows())
	}
	c0 := s.Col(0)
	if !c0.Exact() || c0.Distinct() != 10 {
		t.Fatalf("col0 distinct = %d exact=%v, want 10 exact", c0.Distinct(), c0.Exact())
	}
	if n, exact := c0.EqInt(3); n != 10 || !exact {
		t.Fatalf("EqInt(3) = %d,%v want 10,true", n, exact)
	}
	if n, exact := c0.EqInt(99); n != 0 || !exact {
		t.Fatalf("EqInt(99) = %d,%v want 0,true", n, exact)
	}
	if min, max, ok := c0.IntRange(); !ok || min != 0 || max != 9 {
		t.Fatalf("IntRange = %d..%d,%v", min, max, ok)
	}
	if n, exact := c0.IntRangeCount(2, 4); n != 30 || !exact {
		t.Fatalf("IntRangeCount(2,4) = %d,%v want 30,true", n, exact)
	}
	if f := c0.MaxFreq(); f != 10 {
		t.Fatalf("MaxFreq = %d, want 10", f)
	}
	c1 := s.Col(1)
	if c1.Distinct() != 100 {
		t.Fatalf("col1 distinct = %d, want 100", c1.Distinct())
	}
	if c1.AvgLen() < 2 || c1.AvgLen() > 3 || c1.MaxLen() != 3 {
		t.Fatalf("col1 len stats avg=%v max=%d", c1.AvgLen(), c1.MaxLen())
	}
	c2 := s.Col(2)
	if c2.Nulls() != 25 || c2.Count() != 100 {
		t.Fatalf("col2 nulls=%d count=%d, want 25,100", c2.Nulls(), c2.Count())
	}
}

func TestIntBoolAndFloatKeysDistinct(t *testing.T) {
	b := Extend(nil)
	b.Int(0, 1)
	b.Float(0, 1.0)
	b.Row()
	b.Row()
	s := b.Seal()
	if d := s.Col(0).Distinct(); d != 2 {
		t.Fatalf("int 1 and float 1.0 should be distinct keys, got %d", d)
	}
}

func TestOverflowDistinctEstimate(t *testing.T) {
	b := Extend(nil)
	const n = 5000
	for i := 0; i < n; i++ {
		b.Int(0, int64(i))
		b.Row()
	}
	s := b.Seal()
	c := s.Col(0)
	if c.Exact() {
		t.Fatal("expected overflow past HistCap")
	}
	d := c.Distinct()
	if d < n*7/10 || d > n*13/10 {
		t.Fatalf("distinct estimate %d too far from %d", d, n)
	}
	// Equality on a histogram-resident value is still served exactly
	// from the histogram bucket (exact=false because overflow means we
	// can't rule out later duplicates).
	if got, _ := c.EqInt(5); got != 1 {
		t.Fatalf("EqInt(5) = %d, want 1", got)
	}
	// A value past the cap gets the uniform overflow estimate.
	if got, exact := c.EqInt(4999); exact || got < 1 {
		t.Fatalf("EqInt(4999) = %d exact=%v", got, exact)
	}
	if _, exact := c.IntRangeCount(0, 10); exact {
		t.Fatal("range count should be inexact after overflow")
	}
}

func TestExtendCopyOnWrite(t *testing.T) {
	b := Extend(nil)
	for i := 0; i < 50; i++ {
		b.Int(0, int64(i%5))
		b.Row()
	}
	base := b.Seal()
	b2 := Extend(base)
	for i := 0; i < 50; i++ {
		b2.Int(0, 99)
		b2.Row()
	}
	next := b2.Seal()
	if base.Rows() != 50 || next.Rows() != 100 {
		t.Fatalf("rows base=%d next=%d", base.Rows(), next.Rows())
	}
	if n, _ := base.Col(0).EqInt(99); n != 0 {
		t.Fatalf("predecessor mutated: EqInt(99)=%d", n)
	}
	if n, _ := next.Col(0).EqInt(99); n != 50 {
		t.Fatalf("successor EqInt(99)=%d, want 50", n)
	}
	if base.Col(0).Distinct() != 5 || next.Col(0).Distinct() != 6 {
		t.Fatalf("distinct base=%d next=%d", base.Col(0).Distinct(), next.Col(0).Distinct())
	}
}

func TestExtendAcrossOverflowPreservesSketch(t *testing.T) {
	b := Extend(nil)
	for i := 0; i < 3000; i++ {
		b.Int(0, int64(i))
		b.Row()
	}
	mid := b.Seal()
	b2 := Extend(mid)
	for i := 3000; i < 6000; i++ {
		b2.Int(0, int64(i))
		b2.Row()
	}
	s := b2.Seal()
	d := s.Col(0).Distinct()
	if d < 6000*7/10 || d > 6000*13/10 {
		t.Fatalf("distinct after extended overflow = %d, want ≈6000", d)
	}
	// mid unchanged
	dm := mid.Col(0).Distinct()
	if dm < 3000*7/10 || dm > 3000*13/10 {
		t.Fatalf("mid distinct = %d, want ≈3000", dm)
	}
}

func TestEqual(t *testing.T) {
	build := func(n int) *Table {
		b := Extend(nil)
		r := rand.New(rand.NewSource(7))
		for i := 0; i < n; i++ {
			b.Int(0, r.Int63n(50))
			b.Text(1, fmt.Sprintf("s%d", r.Intn(20)))
			b.Row()
		}
		return b.Seal()
	}
	a, bb := build(500), build(500)
	if !Equal(a, bb) {
		t.Fatal("identical builds not Equal")
	}
	c := build(501)
	if Equal(a, c) {
		t.Fatal("different builds Equal")
	}
	if !Equal(Empty(), Empty()) {
		t.Fatal("empty tables not Equal")
	}
}

func TestBuilderSealTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("second Seal did not panic")
		}
	}()
	b := Extend(nil)
	b.Seal()
	b.Seal()
}

func TestMaxFreqSkew(t *testing.T) {
	b := Extend(nil)
	for i := 0; i < 900; i++ {
		b.Int(0, 1)
		b.Row()
	}
	for i := 0; i < 100; i++ {
		b.Int(0, int64(i+2))
		b.Row()
	}
	s := b.Seal()
	if f := s.Col(0).MaxFreq(); f != 900 {
		t.Fatalf("MaxFreq = %d, want 900", f)
	}
}

// TestSketchIsAPureFunctionOfTheRows pins the distinct estimate of a
// column past HistCap to a constant: the sketch hash is fixed, so the
// same rows give the same synopsis — and through it the same plans —
// in every process and after every recovery. Under a per-process hash
// seed the estimate moved by a few percent from run to run and no
// constant could be written here.
func TestSketchIsAPureFunctionOfTheRows(t *testing.T) {
	build := func() *Table {
		b := Extend(nil)
		for i := 0; i < 5000; i++ {
			b.Int(0, int64(i))
			b.Text(1, fmt.Sprint("person", i))
			b.Row()
		}
		return b.Seal()
	}
	s1, s2 := build(), build()
	for col, want := range []string{
		"distinct truth=5000 est=5036 q=1.01",
		"distinct truth=5000 est=4964 q=1.01",
	} {
		if s1.Col(col).Exact() {
			t.Fatalf("column %d: expected overflow past HistCap", col)
		}
		for _, s := range []*Table{s1, s2} {
			if got := DebugDistinct(5000, s.Col(col)); got != want {
				t.Errorf("column %d: %s, want %s", col, got, want)
			}
		}
	}

	// mark runs once per value on the load path; a sketch the column
	// owns is written in place.
	c := *s1.cols[0]
	c.sketch, c.ownSketch = append([]uint64(nil), c.sketch...), true
	h := hashWord(tagInt, 123456)
	if n := testing.AllocsPerRun(100, func() { c.mark(h) }); n != 0 {
		t.Errorf("mark allocates %.0f times per call, want 0", n)
	}
}

// TestHashIsTheEncodedKeysHash: hash(tag, payload) is FNV-1a a word
// at a time plus one multiply-xorshift round over the encoded key —
// the tag byte, then the payload (an int's or float's 8 bytes
// big-endian) — which the key need not be built to hash. The sketch
// bits, and every distinct estimate past HistCap, depend on it.
func TestHashIsTheEncodedKeysHash(t *testing.T) {
	encoded := func(key []byte) uint64 {
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
		return h
	}
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 40; n++ {
		p := make([]byte, n)
		rng.Read(p)
		for _, tag := range []byte{tagText, tagBytes} {
			key := append([]byte{tag}, p...)
			if got, want := hash(tag, p), encoded(key); got != want {
				t.Fatalf("hash of a %d-byte %c payload = %x, want %x", n, tag, got, want)
			}
			if got, want := hash(tag, string(p)), encoded(key); got != want {
				t.Fatalf("hash of a %d-byte %c string = %x, want %x", n, tag, got, want)
			}
		}
		w := rng.Uint64()
		for _, tag := range []byte{tagInt, tagFloat} {
			key := binary.BigEndian.AppendUint64([]byte{tag}, w)
			if got, want := hashWord(tag, w), encoded(key); got != want {
				t.Fatalf("hash of %c %x = %x, want %x", tag, w, got, want)
			}
		}
	}
}

// TestEqAllocatesNothing: the planner prices every equality conjunct
// through an Eq call, on a histogram hit, a miss and an overflowed
// column alike, and none of them allocates — a long text value
// included.
func TestEqAllocatesNothing(t *testing.T) {
	long := strings.Repeat("a long text value ", 20)
	b := Extend(nil)
	for i := 0; i < 3*HistCap; i++ {
		b.Int(0, int64(i%100))
		b.Text(1, fmt.Sprint(long, i%100))
		b.Bytes(2, []byte(fmt.Sprint(i%100)))
		b.Float(3, float64(i%100)/4)
		b.Int(4, int64(i)) // past HistCap
		b.Row()
	}
	s := b.Seal()
	hit, miss := fmt.Sprint(long, 7), fmt.Sprint(long, 700)
	hitB, missB := []byte("7"), []byte("700")
	for name, eq := range map[string]func(){
		"EqInt":          func() { s.Col(0).EqInt(7); s.Col(0).EqInt(700) },
		"EqText":         func() { s.Col(1).EqText(hit); s.Col(1).EqText(miss) },
		"EqBytes":        func() { s.Col(2).EqBytes(hitB); s.Col(2).EqBytes(missB) },
		"EqFloat":        func() { s.Col(3).EqFloat(1.75); s.Col(3).EqFloat(700) },
		"EqInt overflow": func() { s.Col(4).EqInt(7); s.Col(4).EqInt(3 * HistCap) },
	} {
		if n := testing.AllocsPerRun(100, eq); n != 0 {
			t.Errorf("%s allocates %.0f times per call pair, want 0", name, n)
		}
	}
	if n, exact := s.Col(1).EqText(hit); n != 3*HistCap/100+1 || !exact {
		t.Errorf("EqText(hit) = %d,%v", n, exact)
	}
}

// TestSealedFootprint: a sealed synopsis stores each histogram key
// once, in arrays without pointers. Columns of HistCap distinct int,
// text and bytes values, sealed over a run of commits so that the
// counts are layered, hold under footprintPerKey bytes of live heap a
// key, the key bytes included: less than a map slot and a key
// allocation a key cost. The heap is read before and after building
// several such synopses, so that the few KB other objects make or free
// in between do not count.
func TestSealedFootprint(t *testing.T) {
	const copies, commits, footprintPerKey = 16, 24, 40
	texts := make([]string, HistCap)
	deweys := make([][]byte, HistCap)
	for i := range texts {
		texts[i] = fmt.Sprintf("item%06d", i)
		deweys[i] = []byte{1, 2, byte(i >> 8), byte(i), 3, 4, byte(i % 7), 5}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	syns := make([]*Table, copies)
	for k := range syns {
		s := Empty()
		for c, i := 0, 0; c < commits; c++ {
			b := Extend(s)
			for ; i < (c+1)*HistCap/commits; i++ {
				b.Int(0, int64(i)*7919)
				b.Text(1, texts[i])
				b.Bytes(2, deweys[i])
				b.Row()
			}
			s = b.Seal()
		}
		syns[k] = s
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(texts) // live on both sides of the difference
	runtime.KeepAlive(deweys)
	for c := 0; c < 3; c++ {
		if col := syns[0].Col(c); col.Distinct() != HistCap || !col.Exact() {
			t.Fatalf("column %d: %d distinct, exact=%v; want %d exact", c, col.Distinct(), col.Exact(), HistCap)
		}
	}
	perKey := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (copies * 3 * HistCap)
	t.Logf("sealed synopsis: %.1f B of live heap a histogram key", perKey)
	if perKey > footprintPerKey {
		t.Errorf("sealed synopsis holds %.1f B a histogram key, bound %d", perKey, footprintPerKey)
	}
}

// BenchmarkObserve times one observed value of an int, a text and a
// bytes column, drawn from a domain below HistCap (every value a
// histogram key) and one past it (most values counted only by the
// sketch). A commit of 256 values is sealed and extended at a time, so
// the seals' merges are included.
func BenchmarkObserve(b *testing.B) {
	for _, kind := range []string{"int", "text", "bytes"} {
		for _, domain := range []int{HistCap / 2, 16 * HistCap} {
			where := "below"
			if domain > HistCap {
				where = "past"
			}
			b.Run(kind+"/"+where, func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				order := rng.Perm(domain)
				texts := make([]string, domain)
				deweys := make([][]byte, domain)
				for i, v := range order {
					texts[i] = fmt.Sprintf("item%06d", v)
					deweys[i] = []byte{1, 2, byte(v >> 8), byte(v), 3, byte(v % 7)}
				}
				bl := Extend(nil)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j := i % domain
					switch kind {
					case "int":
						bl.Int(0, int64(order[j]))
					case "text":
						bl.Text(0, texts[j])
					case "bytes":
						bl.Bytes(0, deweys[j])
					}
					bl.Row()
					if i%256 == 255 {
						bl = Extend(bl.Seal())
					}
				}
			})
		}
	}
}
