package xrel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

const testSchema = `
!root A
A -> B @x
B -> C G
C -> D E
E -> F
G -> G
F #text
D #text
`

const testDoc = `<A x="3"><B><C><D>4</D></C><C><E><F>2</F><F>7</F></E></C><G/></B><B><G><G/></G></B></A>`

func open(t *testing.T) *Store {
	t.Helper()
	s, err := ParseCompactSchema(testSchema)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadXML(strings.NewReader(testDoc)); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestQuickstartFlow(t *testing.T) {
	st := open(t)
	res, err := st.Query("/A/B/C//F")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 2 {
		t.Fatalf("nodes = %v", res.Nodes)
	}
	if res.Nodes[0].Dewey == "" || !strings.HasPrefix(res.Nodes[0].Dewey, "1.") {
		t.Errorf("dewey = %q", res.Nodes[0].Dewey)
	}
	if !strings.Contains(res.SQL, "SELECT DISTINCT") {
		t.Errorf("SQL = %s", res.SQL)
	}
}

func TestTranslateOnly(t *testing.T) {
	st := open(t)
	sql, err := st.Translate("/A[@x=3]/B")
	if err != nil {
		t.Fatal(err)
	}
	if sql.Selects != 1 || sql.Joins != 2 {
		t.Errorf("selects=%d joins=%d", sql.Selects, sql.Joins)
	}
	if !strings.Contains(sql.Text, "B.par = A.id") {
		t.Errorf("SQL = %s", sql.Text)
	}
}

func TestRunSQLAndExplain(t *testing.T) {
	st := open(t)
	cols, rows, err := st.RunSQL("SELECT F.id, F.text FROM F ORDER BY F.id")
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || len(rows) != 2 || rows[0][1] != "2" {
		t.Fatalf("cols=%v rows=%v", cols, rows)
	}
	plan, err := st.Explain("/A/B/C//F")
	if err != nil {
		t.Fatal(err)
	}
	if plan == "" {
		t.Error("empty plan")
	}
}

func TestExplainAnalyze(t *testing.T) {
	st := open(t)
	plan, err := st.ExplainAnalyze("/A/B/C//F")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scan ", "[loops=", "time=", "total: rows=2 "} {
		if !strings.Contains(plan, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, plan)
		}
	}
}

func TestStats(t *testing.T) {
	st := open(t)
	if st.PathCount() != 8 {
		t.Errorf("paths = %d", st.PathCount())
	}
	sizes := st.TableSizes()
	if len(sizes) == 0 {
		t.Error("no table sizes")
	}
}

func TestValidQuery(t *testing.T) {
	st := open(t)
	if err := st.ValidQuery("/A/B"); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	if err := st.ValidQuery("///"); err == nil {
		t.Error("bad syntax accepted")
	}
	if err := st.ValidQuery("//F[last()]"); err == nil {
		t.Error("untranslatable query accepted")
	}
}

func TestInferSchemaRoundTrip(t *testing.T) {
	doc, err := ParseXML(strings.NewReader(testDoc))
	if err != nil {
		t.Fatal(err)
	}
	s, err := InferSchema(doc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(doc); err != nil {
		t.Fatal(err)
	}
	res, err := st.Query("//F")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 2 {
		t.Fatalf("nodes = %v", res.Nodes)
	}
}

func TestOpenWithOptions(t *testing.T) {
	s, err := ParseCompactSchema(testSchema)
	if err != nil {
		t.Fatal(err)
	}
	opts := &Options{PathFilterOmission: false, FKChildParent: true}
	st, err := OpenWithOptions(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadXML(strings.NewReader(testDoc)); err != nil {
		t.Fatal(err)
	}
	sql, err := st.Translate("/A/B/C//F")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql.Text, "REGEXP_LIKE") {
		t.Errorf("omission disabled should keep the path filter: %s", sql.Text)
	}
}

// TestPlanCacheAcrossQueries checks that repeating an XPath query
// reuses the engine's cached plan and that the counters are exposed.
func TestPlanCacheAcrossQueries(t *testing.T) {
	st := open(t)
	q := "/A/B/C//F"
	first, err := st.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	_, h0, m0 := st.PlanCacheStats()
	again, err := st.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	size, h1, m1 := st.PlanCacheStats()
	if h1-h0 != 1 || m1 != m0 {
		t.Errorf("repeat query: hits %d->%d misses %d->%d, want one new hit", h0, h1, m0, m1)
	}
	if size == 0 {
		t.Error("PlanCacheStats size = 0 after queries")
	}
	if len(again.Nodes) != len(first.Nodes) {
		t.Errorf("cached plan returned %d nodes, first run %d", len(again.Nodes), len(first.Nodes))
	}
}

// TestQueryUnderGOMAXPROCS checks that a query returns the same nodes
// whatever GOMAXPROCS allows the engine: on a document large enough
// that the descendant step's driving relation spans many morsels, the
// engine runs it on morsel workers when it may.
func TestQueryUnderGOMAXPROCS(t *testing.T) {
	s, err := ParseCompactSchema(testSchema)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(s)
	if err != nil {
		t.Fatal(err)
	}
	var doc strings.Builder
	doc.WriteString("<A>")
	for i := 0; i < 1500; i++ {
		fmt.Fprintf(&doc, "<B><C><D>%d</D><E><F>%d</F><F>%d</F></E></C></B>", i%7, i%5, i%3)
	}
	doc.WriteString("</A>")
	if _, err := st.LoadXML(strings.NewReader(doc.String())); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, q := range []string{"/A/B/C//F", "//C[D='3']/E/F", "//B[C/D='2']//F[.='1']"} {
		runtime.GOMAXPROCS(1)
		want, err := st.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Nodes) == 0 {
			t.Fatalf("%s selects nothing", q)
		}
		runtime.GOMAXPROCS(4)
		got, err := st.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Nodes) != len(want.Nodes) {
			t.Fatalf("%s: %d nodes at GOMAXPROCS 4, %d at 1", q, len(got.Nodes), len(want.Nodes))
		}
		for i := range got.Nodes {
			if got.Nodes[i] != want.Nodes[i] {
				t.Fatalf("%s: node %d differs: %+v vs %+v", q, i, got.Nodes[i], want.Nodes[i])
			}
		}
	}
}

func TestSetLimits(t *testing.T) {
	st := open(t)
	baseline, err := st.Query("/A/B/C//F")
	if err != nil {
		t.Fatal(err)
	}
	st.SetLimits(16, 0) // far below any real materialization
	if _, err := st.Query("/A/B/C//F"); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("memory-limited query: err = %v, want ErrMemoryBudget", err)
	}
	st.SetLimits(0, 1)
	if _, err := st.Query("/A/B/C//F"); !errors.Is(err, ErrRowBudget) {
		t.Fatalf("row-limited query: err = %v, want ErrRowBudget", err)
	}
	// Limits also govern RunSQL.
	if _, _, err := st.RunSQL("SELECT COUNT(*) FROM paths"); err != nil {
		t.Fatalf("COUNT under row limit (counts are not materialized rows): %v", err)
	}
	st.SetLimits(16, 0)
	if _, _, err := st.RunSQL("SELECT id FROM paths ORDER BY id"); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("memory-limited RunSQL: err = %v, want ErrMemoryBudget", err)
	}
	// Back to unlimited: the store must be fully usable.
	st.SetLimits(0, 0)
	res, err := st.Query("/A/B/C//F")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != len(baseline.Nodes) {
		t.Fatalf("nodes after lifting limits = %d, want %d", len(res.Nodes), len(baseline.Nodes))
	}
	if st.PeakStatementMemory() <= 0 {
		t.Error("PeakStatementMemory not recorded")
	}
}

func TestQueryContext(t *testing.T) {
	st := open(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.QueryContext(ctx, "/A/B/C//F"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query: err = %v, want context.Canceled", err)
	}
	res, err := st.QueryContext(context.Background(), "/A/B/C//F")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 2 {
		t.Fatalf("nodes = %v", res.Nodes)
	}
}

// TestSetLimitsConcurrent calls SetLimits while queries run. Each of
// the two settings fails the query, one on memory and one on rows; a
// query that read the memory field of one and the row field of the
// other could run with no budget at all and succeed. Every query must
// fail with a budget error. Run under -race (make chaos), which also
// rejects the unsynchronised reads such a mix comes from.
func TestSetLimitsConcurrent(t *testing.T) {
	st := open(t)
	const q = "/A/B/C//F"
	st.SetLimits(16, 0)
	stop := make(chan struct{})
	setter := make(chan struct{})
	go func() {
		defer close(setter)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				st.SetLimits(0, 1)
			} else {
				st.SetLimits(16, 0)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, err := st.Query(q)
				if !errors.Is(err, ErrMemoryBudget) && !errors.Is(err, ErrRowBudget) {
					t.Errorf("query under concurrent SetLimits: err = %v, want one setting's budget error", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-setter
}
