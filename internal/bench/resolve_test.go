package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/xmltree"
)

// TestCachedPlanRetiredByNewMatchingPath: the planner resolves a path
// pattern to the path ids that match it when the statement compiles
// (engine/resolve.go), so a cached plan holds the answer for the paths
// it saw. A load that adds a *new* path the pattern matches publishes
// a new paths state, which must retire the plan: the next run returns
// the new nodes. Persistent stores, both mappings.
func TestCachedPlanRetiredByNewMatchingPath(t *testing.T) {
	s, err := schema.NewBuilder("A").Element("A", "B").Element("B", "C", "G").Element("G", "G").Build()
	if err != nil {
		t.Fatal(err)
	}
	first, err := xmltree.ParseString(`<A><B><G/></B></A>`)
	if err != nil {
		t.Fatal(err)
	}
	// /A/B/G/G is new to the store and matches //G; /A/B/C is new and
	// does not.
	second, err := xmltree.ParseString(`<A><B><G><G/></G><C/></B></A>`)
	if err != nil {
		t.Fatal(err)
	}
	type loadFunc func(*xmltree.Document) (int64, error)
	mappings := []struct {
		name string
		open func(db *engine.DB) (loadFunc, *core.Translator, error)
	}{
		{"schema-aware", func(db *engine.DB) (loadFunc, *core.Translator, error) {
			st, err := shred.NewSchemaAwareDB(db, s)
			if err != nil {
				return nil, nil, err
			}
			return st.Load, core.New(s, nil), nil
		}},
		{"edge", func(db *engine.DB) (loadFunc, *core.Translator, error) {
			st, err := shred.NewEdgeDB(db)
			if err != nil {
				return nil, nil, err
			}
			return st.Load, core.NewEdge(nil), nil
		}},
	}
	for _, m := range mappings {
		t.Run(m.name, func(t *testing.T) {
			db, err := engine.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			load, tr, err := m.open(db)
			if err != nil {
				t.Fatal(err)
			}
			trans, err := tr.Translate("//G")
			if err != nil {
				t.Fatal(err)
			}
			count := func() int {
				t.Helper()
				res, err := db.RunWithOptionsContext(nil, trans.Stmt, engine.ExecOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return len(res.Rows)
			}
			keys := func(want string) {
				t.Helper()
				plan, err := db.Explain(trans.Stmt)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(plan, want) {
					t.Errorf("plan lacks %q:\n%s", want, plan)
				}
			}

			if _, err := load(first); err != nil {
				t.Fatal(err)
			}
			if got := count(); got != 1 {
				t.Fatalf("//G over the first document: %d nodes, want 1", got)
			}
			hits, _ := db.PlanCacheStats()
			count()
			if h, _ := db.PlanCacheStats(); h != hits+1 {
				t.Fatalf("second run was no plan-cache hit (%d -> %d hits): the test needs a cached plan", hits, h)
			}
			keys("<1 keys of ")

			if _, err := load(second); err != nil {
				t.Fatal(err)
			}
			_, misses := db.PlanCacheStats()
			if got := count(); got != 3 {
				t.Errorf("//G after the second load: %d nodes, want the first document's G and the second's two", got)
			}
			if _, m := db.PlanCacheStats(); m != misses+1 {
				t.Errorf("the run after the load was not a plan-cache miss (%d -> %d misses)", misses, m)
			}
			keys("<2 keys of ")
		})
	}
}
