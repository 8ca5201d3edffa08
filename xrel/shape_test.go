package xrel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestShapeSurvivesLoad: one shape before and after a LoadXML is one
// table entry and two plans — the load retires the plan, nothing
// retires the translation.
func TestShapeSurvivesLoad(t *testing.T) {
	st := open(t)
	before, _, err := st.tr.Prepare("//C[D='4']")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"//C[D='4']", "//C[D='5']", "//C[D='4']"} {
		if _, err := st.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, hits, misses := st.PlanCacheStats(); misses != 1 || hits != 2 {
		t.Errorf("three texts of one shape: %d misses, %d hits, want 1 and 2", misses, hits)
	}
	if _, err := st.LoadXML(strings.NewReader(testDoc)); err != nil {
		t.Fatal(err)
	}
	for i, q := range []string{"//C[D='9']", "//C[D='4']"} {
		res, err := st.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := 2 * i; len(res.Nodes) != want {
			t.Errorf("%s over two documents: %d nodes, want %d", q, len(res.Nodes), want)
		}
	}
	if _, hits, misses := st.PlanCacheStats(); misses != 2 || hits != 3 {
		t.Errorf("after the load: %d misses, %d hits, want 2 and 3", misses, hits)
	}
	if after, _, _ := st.tr.Prepare("//C[D='0']"); after != before {
		t.Error("the load dropped the shape")
	}
}

// TestShapeConcurrentQueries: concurrent Query calls of one shape share
// its Prepared and plan, not their values. Run under -race.
func TestShapeConcurrentQueries(t *testing.T) {
	st := open(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	want := map[string]int{"2": 1, "7": 1, "4": 0, "it's": 0}
	if _, err := st.Query(`//E[F="0"]`); err != nil { // the shape's one compile
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				for v, n := range want {
					q := fmt.Sprintf(`//E[F="%s"]`, v)
					res, err := st.Query(q)
					if err != nil {
						t.Error(err)
						return
					}
					if len(res.Nodes) != n || !strings.Contains(res.SQL, "'"+strings.ReplaceAll(v, "'", "''")+"'") {
						t.Errorf("%s: %d nodes by %s", q, len(res.Nodes), res.SQL)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if _, _, misses := st.PlanCacheStats(); misses != 1 {
		t.Errorf("%d plan-cache misses for one shape", misses)
	}
}

// TestShapeExplainAndErrors: what is explained is the shape's plan, with
// the text's values on the last line; an execution error names the
// statement as Translate spells it.
func TestShapeExplainAndErrors(t *testing.T) {
	st := open(t)
	const q = `//E[F = "it's" or F > 1]`
	sql, err := st.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql.Text, "= 'it''s'") || !strings.Contains(sql.Text, "> 1") {
		t.Fatalf("Translate: %s", sql.Text)
	}
	for _, explain := range []func(string) (string, error){st.Explain, st.ExplainAnalyze} {
		plan, err := explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "= ?1") || !strings.Contains(plan, "> ?2:int") || !strings.HasSuffix(plan, "params: ?1='it''s' ?2=1\n") {
			t.Errorf("plan:\n%s", plan)
		}
	}
	if _, _, misses := st.PlanCacheStats(); misses != 1 {
		t.Errorf("Explain, ExplainAnalyze and Query of one shape compiled %d plans", misses)
	}
	st.SetLimits(0, 1)
	_, err = st.Query(`//E/F[. > 1]`)
	if !errors.Is(err, ErrRowBudget) {
		t.Fatalf("err = %v", err)
	}
	over, _ := st.Translate(`//E/F[. > 1]`)
	if !strings.Contains(err.Error(), fmt.Sprintf("%q", over.Text)) {
		t.Errorf("error %q does not name the statement %q", err, over.Text)
	}
}
