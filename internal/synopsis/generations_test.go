package synopsis

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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
// batch sizes. Every generation must still answer, once all are sealed,
// as it did when it was sealed. At steps 0, 1, 2, 4, 8, … and at the
// last one the newest generation must also be Equal to, and answer
// exactly like, a one-shot build of the same rows: a reference at every
// step would make the check quadratic in the rows, and a generation
// that went wrong between two such steps hands its error on to the
// next. Beside every other generation it seals a sibling: a second
// successor of the same predecessor, over rows the generation did not
// observe, sealed before the generation at one such step and after it
// at the next. Siblings share their predecessor's state too, and each
// must stay the synopsis of its own rows however the other successor
// wrote.
func checkGenerations(t *testing.T, rows [][]value, batches []int, domain int) {
	t.Helper()
	var states []built
	prev, done := Empty(), 0
	for step, n := range batches {
		base, baseRows := prev, rows[:done]
		sibRows := rows[done+n : min(done+2*n, len(rows))]
		if len(sibRows) == 0 {
			sibRows = rows[:min(n, done)]
		}
		ref := step&(step-1) == 0 || step == len(batches)-1
		sibling := func() {
			states = append(states, checkBuilt(t, fmt.Sprintf("sibling of generation %d", step), base, baseRows, sibRows, domain, ref))
		}
		if step%4 == 2 {
			sibling()
		}
		g := checkBuilt(t, fmt.Sprintf("generation %d", step), base, baseRows, rows[done:done+n], domain, ref)
		for _, c := range g.t.cols {
			if max := maxDepth(); len(c.layers) > max {
				t.Fatalf("generation %d: a histogram %d layers deep, bound %d", step, len(c.layers), max)
			}
		}
		states = append(states, g)
		if step%4 == 0 {
			sibling()
		}
		prev, done = g.t, done+n
	}
	// Sealed state is never written back, so a state a later successor
	// disturbed still differs once every state is sealed.
	for _, s := range states {
		if s.ref != nil && (!Equal(s.t, s.ref) || !Equal(s.ref, s.t)) {
			t.Fatalf("%s changed after later states were sealed: not Equal to a one-shot build", s.name)
		}
		if a := answers(s.t, domain); a != s.want {
			t.Fatalf("%s changed after later states were sealed:\n%s\nwant\n%s", s.name, a, s.want)
		}
	}
}

// built is a sealed successor, the one-shot build of its rows where it
// was compared with one, and what its accessors answered when it was
// sealed.
type built struct {
	name   string
	t, ref *Table
	want   string
}

// checkBuilt seals the successor of base (the synopsis of baseRows)
// that observes more and, with ref, checks it is Equal to, and answers
// exactly like, a one-shot build of baseRows and more.
func checkBuilt(t *testing.T, name string, base *Table, baseRows, more [][]value, domain int, ref bool) built {
	t.Helper()
	b := Extend(base)
	for _, row := range more {
		observe(b, row)
	}
	s := b.Seal()
	got := answers(s, domain)
	if !ref {
		return built{name: name, t: s, want: got}
	}
	one := oneShot(append(append([][]value(nil), baseRows...), more...))
	if !Equal(s, one) || !Equal(one, s) {
		t.Fatalf("%s (%d rows): not Equal to a one-shot build\n%s\nwant %s", name, len(baseRows)+len(more), s, one)
	}
	if w := answers(one, domain); got != w {
		t.Fatalf("%s (%d rows): accessors differ from a one-shot build:\n%s\nwant\n%s", name, len(baseRows)+len(more), got, w)
	}
	return built{name: name, t: s, ref: one, want: got}
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

// TestPredecessorReadDuringBuild reads sealed synopses from other
// goroutines while successors of them are built and sealed; under -race
// any write a successor made to shared dictionaries, histogram layers or
// sketches would be reported. Every chain state and every sibling must
// then still be the synopsis of its own rows.
func TestPredecessorReadDuringBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const domain, sealed = 3000, 2000
	rows := genRows(rng, sealed+400, 4, domain)
	// Columns 0 and 1 of base are past HistCap, so successors share
	// their sketches; columns 2 and 3 are under it, so successors add
	// keys to dictionaries they share with base.
	narrow(rows[:sealed], 2, HistCap/8)
	narrow(rows[sealed:], 2, HistCap/2)
	base := oneShot(rows[:sealed])
	for i := 0; i < base.NumCols(); i++ {
		if base.Col(i).Exact() != (i >= 2) {
			t.Fatalf("column %d of the predecessor: exact=%v", i, base.Col(i).Exact())
		}
	}

	// The readers read base and the newest chain state, as queries read
	// the published snapshot while the next commit builds its successor.
	type published struct {
		t    *Table
		want string
	}
	var latest atomic.Pointer[published]
	latest.Store(&published{base, answers(base, domain)})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := answers(base, domain)
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := latest.Load()
				if answers(base, domain) != want || answers(p.t, domain) != p.want {
					t.Error("a sealed synopsis changed while a successor was built")
					return
				}
			}
		}()
	}
	// A chain of successors of base, and a one-row sibling of base
	// beside each link: both share base's state.
	var states []built
	prev, done := base, sealed
	for step, n := range splitBatches(rng, len(rows)-sealed) {
		g := checkBuilt(t, fmt.Sprintf("chain state %d", step), prev, rows[:done], rows[done:done+n], domain, true)
		latest.Store(&published{g.t, g.want})
		s := checkBuilt(t, fmt.Sprintf("sibling %d", step), base, rows[:sealed], rows[done:done+1], domain, true)
		states = append(states, g, s)
		prev, done = g.t, done+n
	}
	close(stop)
	wg.Wait()
	for _, s := range states {
		if !Equal(s.t, s.ref) || answers(s.t, domain) != s.want {
			t.Fatalf("%s changed after later states were sealed", s.name)
		}
	}
}

// narrow draws the values of columns from on from [0, domain) instead.
func narrow(rows [][]value, from, domain int) {
	for _, row := range rows {
		for c := from; c < len(row); c++ {
			row[c].n %= int64(domain)
		}
	}
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
