package engine_test

import (
	"fmt"
	"regexp"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/shred"
	"repro/internal/xmark"
)

// memoPeaks records, over every table state a statement sequence
// leaves behind, the largest number of entries each memo and each kind
// of entry reached, and fails the test if a memo reaches its cap or
// shrinks — a flush — on one state.
type memoPeaks struct {
	t    *testing.T
	last map[any]engine.MemoLoad
	peak engine.MemoLoad
}

func newMemoPeaks(t *testing.T) *memoPeaks {
	return &memoPeaks{t: t, last: map[any]engine.MemoLoad{}}
}

// sample reads the memos of db's current states after a statement.
func (p *memoPeaks) sample(label string, db *engine.DB) {
	p.t.Helper()
	for table, l := range engine.MemoLoads(db) {
		if prev, ok := p.last[l.State]; ok && (l.Builds < prev.Builds || l.Resolved < prev.Resolved) {
			p.t.Errorf("%s: %s's memos shrank from %d builds / %d sets to %d / %d: a flush", label, table, prev.Builds, prev.Resolved, l.Builds, l.Resolved)
		}
		p.last[l.State] = l
		if l.Builds >= engine.MemoCap || l.Resolved >= engine.MemoCap {
			p.t.Errorf("%s: %s holds %d builds and %d resolved sets; the cap is %d", label, table, l.Builds, l.Resolved, engine.MemoCap)
		}
		pk := &p.peak
		pk.Builds, pk.Resolved = max(pk.Builds, l.Builds), max(pk.Resolved, l.Resolved)
		pk.Hashes, pk.ScopedHashes, pk.ScopedRuns = max(pk.Hashes, l.Hashes), max(pk.ScopedHashes, l.ScopedHashes), max(pk.ScopedRuns, l.ScopedRuns)
		pk.Distinct = max(pk.Distinct, l.Distinct)
		pk.KeySets, pk.PairSets = max(pk.KeySets, l.KeySets), max(pk.PairSets, l.PairSets)
	}
}

// query runs an XPath query as xrel.Store does (Prepare, Bind, RunArgs
// on the shape's plan) and, with literal, also as the translated text.
func query(t *testing.T, db *engine.DB, tr *core.Translator, xp string, literal bool) {
	t.Helper()
	sh, args, err := tr.Prepare(xp)
	if err != nil {
		t.Fatalf("%s: %v", xp, err)
	}
	if _, err := sh.Prepared(db).RunArgs(nil, args, engine.ExecOptions{}); err != nil {
		t.Fatalf("%s: %v", xp, err)
	}
	if !literal {
		return
	}
	trans, err := tr.Translate(xp)
	if err != nil {
		t.Fatalf("%s: %v", xp, err)
	}
	if _, err := db.RunWithOptionsContext(nil, trans.Stmt, engine.ExecOptions{}); err != nil {
		t.Fatalf("%s: %v", xp, err)
	}
}

// TestMemoTrafficUnderCap runs the benchmark's statements — the Figure
// 3 queries on both mappings, the six ad-hoc templates over many key
// values, and a load_durable-shaped sequence of loads and read rounds
// on a persistent store — and requires that no memo of any table state
// reaches its cap, and the pattern memo not its own: the
// flush-on-overflow policy never fires under the benchmark's traffic.
// It logs the peaks, which DESIGN.md §13 records.
func TestMemoTrafficUnderCap(t *testing.T) {
	if testing.Short() {
		t.Skip("loads three workloads")
	}
	engine.ResetPatternCache()
	peaks := newMemoPeaks(t)
	key := regexp.MustCompile(`\d+'`)

	xm, err := bench.NewXMark(goldenRowsScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	dblp, err := bench.NewDBLP(goldenRowsScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*bench.Workload{xm, dblp} {
		for _, m := range []struct {
			name string
			db   *engine.DB
			tr   *core.Translator
		}{{"aware", w.Aware.DB, core.New(w.Schema, nil)}, {"edge", w.Edge.DB, core.NewEdge(nil)}} {
			// Warm passes: the first compiles the plans, the others hit
			// them.
			for pass := 0; pass < 3; pass++ {
				for _, q := range w.Queries {
					query(t, m.db, m.tr, q.XPath, pass == 0)
					peaks.sample(fmt.Sprintf("%s %s %s", w.Name, m.name, q.ID), m.db)
				}
			}
			if w != xm {
				continue
			}
			for _, q := range adhocQueries {
				for v := 0; v < 40; v++ {
					xp := key.ReplaceAllString(q.XPath, fmt.Sprintf("%d'", v))
					query(t, m.db, m.tr, xp, v < 10)
					peaks.sample(fmt.Sprintf("%s %s %s", w.Name, m.name, xp), m.db)
				}
			}
		}
	}

	// load_durable: loads, a read round after every tenth, a checkpoint
	// halfway, on a persistent schema-aware store.
	db, err := engine.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, err := shred.NewSchemaAwareDB(db, xmark.Schema())
	if err != nil {
		t.Fatal(err)
	}
	tr := core.New(xmark.Schema(), nil)
	var round []string
	for _, id := range []string{"Q1", "Q3", "Q6", "Q9", "Q12", "Q23"} {
		q, ok := xm.Query(id)
		if !ok {
			t.Fatalf("no query %s", id)
		}
		round = append(round, q.XPath)
	}
	for i := 0; i < 30; i++ {
		doc, err := xmark.Generate(xmark.Config{Scale: 0.005, Seed: int64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Load(doc); err != nil {
			t.Fatal(err)
		}
		if i == 15 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if (i+1)%10 != 0 {
			continue
		}
		for _, xp := range round {
			query(t, db, tr, xp, false)
			peaks.sample(fmt.Sprintf("load_durable doc %d %s", i, xp), db)
		}
	}

	if n := engine.PatternCacheSize(); n >= engine.PatternCacheCap {
		t.Errorf("pattern memo holds %d matchers; the cap is %d", n, engine.PatternCacheCap)
	}
	p := peaks.peak
	t.Logf("peak entries on one table state (cap %d): builds %d (hashes %d, scoped hashes %d, scoped runs %d, distinct values %d), resolved %d (key sets %d, pair sets %d); pattern memo %d (cap %d)",
		engine.MemoCap, p.Builds, p.Hashes, p.ScopedHashes, p.ScopedRuns, p.Distinct, p.Resolved, p.KeySets, p.PairSets, engine.PatternCacheSize(), engine.PatternCacheCap)
}
