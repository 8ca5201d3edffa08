package synopsis

import (
	"fmt"
	"math/rand"
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

	// mark runs once per value on the load path.
	c := s1.cols[0].clone()
	key := keyInt(nil, 123456)
	if n := testing.AllocsPerRun(100, func() { c.mark(key) }); n != 0 {
		t.Errorf("mark allocates %.0f times per call, want 0", n)
	}
}
