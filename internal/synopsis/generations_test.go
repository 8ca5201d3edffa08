package synopsis

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// value is one observation of a generated row: kind 0 is NULL, then
// int, float, text and bytes.
type value struct {
	kind int
	n    int64
}

func observe(b *Builder, row []value) {
	for i, v := range row {
		switch v.kind {
		case 0:
			b.Null(i)
		case 1:
			b.Int(i, v.n)
		case 2:
			b.Float(i, float64(v.n)/4)
		case 3:
			b.Text(i, fmt.Sprint("s", v.n))
		case 4:
			b.Bytes(i, []byte(fmt.Sprint(v.n)))
		}
	}
	b.Row()
}

// genRows draws n rows of ncols mixed-kind values from a domain of
// that many values per kind: a domain past HistCap overflows the
// histograms, one under it keeps them exact.
func genRows(rng *rand.Rand, n, ncols, domain int) [][]value {
	rows := make([][]value, n)
	for i := range rows {
		rows[i] = make([]value, ncols)
		for c := range rows[i] {
			// Column c leans to kind c+1, so every kind has a column
			// whose histogram it fills.
			kind := 1 + c%4
			if rng.Intn(3) == 0 {
				kind = rng.Intn(5)
			}
			rows[i][c] = value{kind: kind, n: int64(rng.Intn(domain))}
		}
	}
	return rows
}

// oneShot is the reference: every row observed by a single builder.
func oneShot(rows [][]value) *Table {
	b := Extend(nil)
	for _, row := range rows {
		observe(b, row)
	}
	return b.Seal()
}

// answers renders what every accessor of every column returns, for
// probe values on both sides of the domain, as one comparable string.
func answers(t *Table, domain int) string {
	var s strings.Builder
	fmt.Fprintf(&s, "rows=%d cols=%d\n", t.Rows(), t.NumCols())
	step := domain/24 + 1
	for i := 0; i <= t.NumCols(); i++ { // one past the end: the zero Col
		c := t.Col(i)
		lo, hi, iok := c.IntRange()
		flo, fhi, fok := c.FloatRange()
		fmt.Fprintf(&s, "c%d n=%d null=%d d=%d exact=%v int=%d..%d,%v float=%g..%g,%v avg=%g max=%d freq=%d\n",
			i, c.Count(), c.Nulls(), c.Distinct(), c.Exact(), lo, hi, iok, flo, fhi, fok, c.AvgLen(), c.MaxLen(), c.MaxFreq())
		for v := -1; v <= domain+1; v += step {
			n1, e1 := c.EqInt(int64(v))
			n2, e2 := c.EqFloat(float64(v) / 4)
			n3, e3 := c.EqText(fmt.Sprint("s", v))
			n4, e4 := c.EqBytes([]byte(fmt.Sprint(v)))
			n5, e5 := c.IntRangeCount(int64(v), int64(v+3*step))
			fmt.Fprintf(&s, " %d:%d,%v %d,%v %d,%v %d,%v %d,%v", v, n1, e1, n2, e2, n3, e3, n4, e4, n5, e5)
		}
		s.WriteByte('\n')
	}
	return s.String()
}

// checkGenerations seals rows into successive generations of the given
// batch sizes. After every Seal the newest generation must be Equal to,
// and answer exactly like, a one-shot build of the same rows, and every
// earlier generation must still answer as it did when it was sealed.
func checkGenerations(t *testing.T, rows [][]value, batches []int, domain int) {
	t.Helper()
	var (
		gens []*Table
		want []string
	)
	prev, done := Empty(), 0
	for _, n := range batches {
		b := Extend(prev)
		for _, row := range rows[done : done+n] {
			observe(b, row)
		}
		done += n
		prev = b.Seal()
		ref := oneShot(rows[:done])
		if !Equal(prev, ref) || !Equal(ref, prev) {
			t.Fatalf("generation %d (%d rows): not Equal to a one-shot build\n%s\nwant %s", len(gens), done, prev, ref)
		}
		got := answers(prev, domain)
		if w := answers(ref, domain); got != w {
			t.Fatalf("generation %d (%d rows): accessors differ from a one-shot build:\n%s\nwant\n%s", len(gens), done, got, w)
		}
		for _, c := range prev.cols {
			if max := maxDepth(); len(c.layers) > max {
				t.Fatalf("generation %d: a histogram %d layers deep, bound %d", len(gens), len(c.layers), max)
			}
		}
		gens, want = append(gens, prev), append(want, got)
	}
	// Sealed state is never written back, so a generation a successor
	// disturbed still differs once every generation is sealed.
	for i, g := range gens {
		if a := answers(g, domain); a != want[i] {
			t.Fatalf("generation %d changed after later generations were sealed:\n%s\nwant\n%s", i, a, want[i])
		}
	}
}

// maxDepth is the layer bound: log2(HistCap)+1.
func maxDepth() int {
	d := 1
	for n := HistCap; n > 1; n /= 2 {
		d++
	}
	return d
}

// splitBatches cuts n rows into random batch sizes: single rows and
// small batches half the time, up to an eighth of the rows otherwise.
func splitBatches(rng *rand.Rand, n int) []int {
	var out []int
	for n > 0 {
		k := 1 + rng.Intn(4)
		if rng.Intn(2) == 0 {
			k = 1 + rng.Intn(n/8+1)
		}
		k = min(k, n)
		out = append(out, k)
		n -= k
	}
	return out
}

// TestGenerationsEqualOneShot: a synopsis extended over many commits is
// the synopsis of all their rows observed at once, under and past the
// HistCap overflow, and sealing a successor never changes a
// predecessor.
func TestGenerationsEqualOneShot(t *testing.T) {
	for _, tc := range []struct {
		name         string
		rows, domain int
	}{
		{"exact", 600, 40},
		{"overflow", 2600, 3000},
		{"crossing", 1500, 1200},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s-%d", tc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				rows := genRows(rng, tc.rows, 4, tc.domain)
				checkGenerations(t, rows, splitBatches(rng, len(rows)), tc.domain)
			})
		}
	}
}

// FuzzSynopsisGenerations is TestGenerationsEqualOneShot over fuzzed
// row counts, value domains, column counts and batch splits.
func FuzzSynopsisGenerations(f *testing.F) {
	f.Add(int64(1), uint16(300), uint16(20), uint8(3))
	f.Add(int64(2), uint16(2000), uint16(4000), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nrows, domain uint16, ncols uint8) {
		rng := rand.New(rand.NewSource(seed))
		n, d := int(nrows)%2500, 1+int(domain)%5000
		rows := genRows(rng, n, 1+int(ncols)%5, d)
		checkGenerations(t, rows, splitBatches(rng, n), d)
	})
}

// TestPredecessorReadDuringBuild reads a sealed synopsis from other
// goroutines while successors of it are built and sealed; under -race
// any write a successor made to shared histogram layers or sketches
// would be reported.
func TestPredecessorReadDuringBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const domain, sealed = 3000, 2000
	rows := genRows(rng, sealed+400, 4, domain)
	base := oneShot(rows[:sealed])
	for i := 0; i < base.NumCols(); i++ {
		if base.Col(i).Exact() {
			t.Fatalf("column %d of the predecessor is under HistCap; the sketch goes unshared", i)
		}
	}
	want := answers(base, domain)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := answers(base, domain); got != want {
					t.Error("predecessor changed while a successor was built")
					return
				}
			}
		}()
	}
	// A chain of successors of base, and a one-row sibling of base
	// beside each link: both share base's layers and sketches.
	prev, done := base, sealed
	for _, n := range splitBatches(rng, len(rows)-sealed) {
		b := Extend(prev)
		for _, row := range rows[done : done+n] {
			observe(b, row)
		}
		prev = b.Seal()
		b = Extend(base)
		observe(b, rows[done])
		b.Seal()
		done += n
	}
	close(stop)
	wg.Wait()
}

// TestOneRowSuccessorCost: a successor holding one new row costs the
// same allocations and bytes whether its predecessor's columns hold 16
// or HistCap distinct values — a commit pays for what it appends.
func TestOneRowSuccessorCost(t *testing.T) {
	const cols, runs = 16, 200
	measure := func(distinct int) (allocs, bytes float64) {
		b := Extend(nil)
		for i := 0; i < 2*HistCap; i++ {
			for c := 0; c < cols; c++ {
				b.Int(c, int64(i%distinct))
			}
			b.Row()
		}
		prev := b.Seal()
		succ := func() {
			b := Extend(prev)
			for c := 0; c < cols; c++ {
				b.Int(c, 3) // a value every column already holds
			}
			b.Row()
			b.Seal()
		}
		allocs = testing.AllocsPerRun(runs, succ)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			succ()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	a16, b16 := measure(16)
	aCap, bCap := measure(HistCap)
	t.Logf("one-row successor of a %d-column synopsis: %.0f allocs, %.0f B at 16 distinct; %.0f allocs, %.0f B at %d distinct",
		cols, a16, b16, aCap, bCap, HistCap)
	if d := aCap - a16; d > 2 || d < -2 {
		t.Errorf("allocations differ by %.0f between 16 and %d distinct values per column", d, HistCap)
	}
	if d := bCap - b16; d > 512 || d < -512 {
		t.Errorf("bytes differ by %.0f between 16 and %d distinct values per column", d, HistCap)
	}
}
