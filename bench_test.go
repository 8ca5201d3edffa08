// Package repro's top-level benchmarks regenerate every table and
// figure of the paper's evaluation (Section 5, Appendix C) as
// testing.B benchmarks. Each benchmark iteration executes the full
// query once on the pre-loaded workload; b.ReportMetric exposes the
// result cardinality so runs can be compared against the paper's
// "# of nodes" columns.
//
// Scales are reduced relative to cmd/xbench so that 'go test -bench=.'
// finishes in minutes; run 'go run ./cmd/xbench -scale 1' (and
// -experiment appc-large for the 10x document) for the full-size
// reproduction recorded in EXPERIMENTS.md.
package repro

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/xmark"
	"repro/xrel"
)

// benchScale keeps 'go test -bench=.' tractable; see EXPERIMENTS.md
// for full-scale numbers.
const (
	benchScaleSmall = 0.1
	benchScaleLarge = 1.0
	benchScaleDBLP  = 0.1
)

var (
	onceSmall, onceLarge, onceDBLP sync.Once
	wSmall, wLarge, wDBLP          *bench.Workload
)

func xmarkSmall(b *testing.B) *bench.Workload {
	onceSmall.Do(func() {
		var err error
		if wSmall, err = bench.NewXMark(benchScaleSmall, 42); err != nil {
			b.Fatal(err)
		}
	})
	return wSmall
}

func xmarkLarge(b *testing.B) *bench.Workload {
	onceLarge.Do(func() {
		var err error
		if wLarge, err = bench.NewXMark(benchScaleLarge, 42); err != nil {
			b.Fatal(err)
		}
	})
	return wLarge
}

func dblpWorkload(b *testing.B) *bench.Workload {
	onceDBLP.Do(func() {
		var err error
		if wDBLP, err = bench.NewDBLP(benchScaleDBLP, 42); err != nil {
			b.Fatal(err)
		}
	})
	return wDBLP
}

// benchQuery runs one (system, query) cell.
func benchQuery(b *testing.B, w *bench.Workload, sys bench.System, q bench.Query) {
	b.Helper()
	if !w.Supported(sys, q.ID) {
		b.Skipf("%s does not support %s (N/A in the paper)", sys, q.ID)
	}
	var nodes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, err := w.Run(sys, q)
		if err != nil {
			b.Fatal(err)
		}
		nodes = len(ids)
	}
	b.ReportMetric(float64(nodes), "nodes")
}

// BenchmarkFig3 reproduces Figure 3: schema-aware vs Edge-like PPF on
// the XMark and DBLP query sets.
func BenchmarkFig3(b *testing.B) {
	for _, load := range []struct {
		name string
		w    func(*testing.B) *bench.Workload
	}{{"XMark", xmarkSmall}, {"DBLP", dblpWorkload}} {
		w := load.w(b)
		for _, q := range w.Queries {
			for _, sys := range []bench.System{bench.PPF, bench.EdgePPF} {
				b.Run(fmt.Sprintf("%s/%s/%s", load.name, q.ID, sysTag(sys)), func(b *testing.B) {
					benchQuery(b, w, sys, q)
				})
			}
		}
	}
}

// BenchmarkAppCSmall reproduces the left half of Appendix C (Figure
// 4): all five systems on the small XMark document. `go test -bench
// AppCSmall -cpu 1,2` runs it at GOMAXPROCS 1 (the paper's serial
// configuration) and 2, where the engine runs the statements it judges
// worth it (at this scale Q6, and Q13 on the Edge-like mapping) on
// morsel workers.
func BenchmarkAppCSmall(b *testing.B) {
	w := xmarkSmall(b)
	for _, q := range w.Queries {
		for _, sys := range bench.Systems {
			b.Run(fmt.Sprintf("%s/%s", q.ID, sysTag(sys)), func(b *testing.B) {
				benchQuery(b, w, sys, q)
			})
		}
	}
}

// BenchmarkAppCLarge reproduces the large-document columns of
// Appendix C (10x the small scale).
func BenchmarkAppCLarge(b *testing.B) {
	if testing.Short() {
		b.Skip("large workload skipped in -short mode")
	}
	w := xmarkLarge(b)
	for _, q := range w.Queries {
		for _, sys := range bench.Systems {
			b.Run(fmt.Sprintf("%s/%s", q.ID, sysTag(sys)), func(b *testing.B) {
				benchQuery(b, w, sys, q)
			})
		}
	}
}

// BenchmarkAppCDBLP reproduces the DBLP table of Appendix C.
func BenchmarkAppCDBLP(b *testing.B) {
	w := dblpWorkload(b)
	for _, q := range w.Queries {
		for _, sys := range bench.Systems {
			b.Run(fmt.Sprintf("%s/%s", q.ID, sysTag(sys)), func(b *testing.B) {
				benchQuery(b, w, sys, q)
			})
		}
	}
}

// BenchmarkAblatePathFilter measures the Section 4.5 optimization:
// the same PPF plans with path-filter omission on and off.
func BenchmarkAblatePathFilter(b *testing.B) {
	w := xmarkSmall(b)
	off := core.DefaultOptions()
	off.PathFilterOmission = false
	trOff := w.NewPPFTranslator(&off)
	for _, q := range w.Queries {
		for _, variant := range []struct {
			name string
			tr   *core.Translator
		}{{"on", w.NewPPFTranslator(nil)}, {"off", trOff}} {
			tr := variant.tr
			b.Run(fmt.Sprintf("%s/omission-%s", q.ID, variant.name), func(b *testing.B) {
				trans, err := tr.Translate(q.XPath)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := w.Aware.DB.RunWithOptionsContext(nil, trans.Stmt, engine.ExecOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblateFKJoin measures the Section 4.2 choice of FK
// equijoins vs Dewey comparisons for child/parent steps.
func BenchmarkAblateFKJoin(b *testing.B) {
	w := xmarkSmall(b)
	off := core.DefaultOptions()
	off.FKChildParent = false
	trOff := w.NewPPFTranslator(&off)
	for _, q := range w.Queries {
		for _, variant := range []struct {
			name string
			tr   *core.Translator
		}{{"fk", w.NewPPFTranslator(nil)}, {"dewey", trOff}} {
			tr := variant.tr
			b.Run(fmt.Sprintf("%s/%s", q.ID, variant.name), func(b *testing.B) {
				trans, err := tr.Translate(q.XPath)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := w.Aware.DB.RunWithOptionsContext(nil, trans.Stmt, engine.ExecOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTranslate measures translation cost alone (the paper's
// "low implementation complexity" claim includes cheap compilation).
func BenchmarkTranslate(b *testing.B) {
	w := xmarkSmall(b)
	tr := w.NewPPFTranslator(nil)
	for _, q := range w.Queries {
		b.Run(q.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tr.Translate(q.XPath); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sysTag(sys bench.System) string {
	switch sys {
	case bench.PPF:
		return "PPF"
	case bench.EdgePPF:
		return "EdgePPF"
	case bench.Staircase:
		return "Staircase"
	case bench.Commercial:
		return "Commercial"
	case bench.Accel:
		return "Accel"
	}
	return string(sys)
}

// TestBenchmarkWorkloadsVerify keeps the benchmark workloads honest:
// every query must agree with the oracle at benchmark scale.
func TestBenchmarkWorkloadsVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("verification at benchmark scale skipped in -short mode")
	}
	w, err := bench.NewXMark(benchScaleSmall, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		if _, err := w.Verify(q); err != nil {
			t.Error(err)
		}
	}
	d, err := bench.NewDBLP(benchScaleDBLP, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range d.Queries {
		if _, err := d.Verify(q); err != nil {
			t.Error(err)
		}
	}
}

// BenchmarkQueryShapes measures what xrel.Store.Query costs per call
// when every text is new and only its shape repeats: person_name and
// closed_by_buyer (benchmark/queries.go) instantiated with every person
// id of the document, shuffled, so a text recurs only after all the
// others of its template. It is the in-repo number for the ad-hoc
// workload that does not need benchmark/.
func BenchmarkQueryShapes(b *testing.B) {
	doc, err := xmark.Generate(xmark.Config{Scale: benchScaleSmall, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	store, err := xrel.Open(xmark.Schema())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := store.Load(doc); err != nil {
		b.Fatal(err)
	}
	people, err := store.Query("/site/people/person")
	if err != nil {
		b.Fatal(err)
	}
	for _, tmpl := range []struct{ name, format string }{
		{"person_name", "/site/people/person[@id='person%d']/name"},
		{"closed_by_buyer", "/site/closed_auctions/closed_auction[buyer/@person='person%d']/price"},
	} {
		texts := make([]string, len(people.Nodes))
		for i := range texts {
			texts[i] = fmt.Sprintf(tmpl.format, i)
		}
		rand.New(rand.NewSource(42)).Shuffle(len(texts), func(i, j int) { texts[i], texts[j] = texts[j], texts[i] })
		b.Run(tmpl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := store.Query(texts[i%len(texts)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
