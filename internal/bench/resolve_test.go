package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dblp"
	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/xmltree"
)

// TestCachedPlanRetiredByNewMatchingPath: the planner resolves a path
// pattern to the path ids that match it when the statement compiles
// (engine/resolve.go), so a cached plan holds the answer for the paths
// it saw — and a hash join built over a key set's rows, or a Dewey
// step's scoped run, holds the rows of the state it saw. A load that adds a *new* path the pattern matches
// publishes a new paths state, and one that adds rows under a known
// path a new state of their relation; either must retire the plan, and
// the next run returns the new nodes. Persistent stores, both mappings:
// //G over a recursive schema, and QD5, whose value join probes a hash
// built over the book authors, over the DBLP schema; and, Edge only, Q6,
// whose ancestor step runs over the rows of the listitem paths.
func TestCachedPlanRetiredByNewMatchingPath(t *testing.T) {
	g, err := schema.NewBuilder("A").Element("A", "B").Element("B", "C", "G").Element("G", "G").Build()
	if err != nil {
		t.Fatal(err)
	}
	// dblpDoc is a document of n papers, the i-th by authors a<i> and
	// z<i>, and of a book by each of books.
	dblpDoc := func(from, n int, books ...string) string {
		var b strings.Builder
		b.WriteString("<dblp>")
		for i := from; i < from+n; i++ {
			fmt.Fprintf(&b, "<inproceedings><author>a%d</author><author>z%d</author><title>t%d</title></inproceedings>", i, i, i)
		}
		for _, a := range books {
			fmt.Fprintf(&b, "<book><author>%s</author><title>b</title></book>", a)
		}
		b.WriteString("</dblp>")
		return b.String()
	}
	type load struct {
		doc  string
		want int    // nodes the query returns after the load
		plan string // a line the plan holds after it
	}
	cases := []struct {
		name  string
		s     *schema.Schema // nil: the case runs on the Edge mapping only
		xpath string
		loads []load
	}{
		{"G", g, "//G", []load{
			{`<A><B><G/></B></A>`, 1, "<1 keys of "},
			// /A/B/G/G is new to the store and matches //G; /A/B/C is new
			// and does not.
			{`<A><B><G><G/></G><C/></B></A>`, 3, "<2 keys of "},
		}},
		{"QD5", dblp.Schema(), "/dblp/inproceedings[author=/dblp/book/author]/title", []load{
			// No book author yet: the key set is empty.
			{dblpDoc(0, 40), 0, "<0 keys of "},
			// /dblp/book/author is new and names two of the papers' authors.
			{dblpDoc(40, 40, "a3", "a41"), 2, "hash join over path_id IN <1 keys of "},
			// A book author under the known path: a new state of the relation
			// that holds it, and a third paper.
			{dblpDoc(80, 40, "z7"), 3, "hash join over path_id IN <1 keys of "},
		}},
		// Edge Q6, whose ancestor step runs over the listitem rows of the
		// listitem paths the plan saw.
		{"Q6", nil, "//keyword/ancestor::listitem", []load{
			{`<site><a><listitem><text><keyword/></text></listitem><listitem/></a></site>`, 1, "index prefix lookups edge_dp over path_id IN <1 keys of e2_paths>"},
			// /site/b/parlist/listitem is new and matches the ancestor step.
			{`<site><b><parlist><listitem><keyword/><keyword/></listitem></parlist></b></site>`, 2, "index prefix lookups edge_dp over path_id IN <2 keys of e2_paths>"},
		}},
	}
	type loadFunc func(*xmltree.Document) (int64, error)
	mappings := []struct {
		name string
		open func(db *engine.DB, s *schema.Schema) (loadFunc, *core.Translator, error)
	}{
		{"schema-aware", func(db *engine.DB, s *schema.Schema) (loadFunc, *core.Translator, error) {
			st, err := shred.NewSchemaAwareDB(db, s)
			if err != nil {
				return nil, nil, err
			}
			return st.Load, core.New(s, nil), nil
		}},
		{"edge", func(db *engine.DB, _ *schema.Schema) (loadFunc, *core.Translator, error) {
			st, err := shred.NewEdgeDB(db)
			if err != nil {
				return nil, nil, err
			}
			return st.Load, core.NewEdge(nil), nil
		}},
	}
	for _, m := range mappings {
		t.Run(m.name, func(t *testing.T) {
			for _, c := range cases {
				if c.s == nil && m.name != "edge" {
					continue
				}
				t.Run(c.name, func(t *testing.T) {
					db, err := engine.Open(t.TempDir())
					if err != nil {
						t.Fatal(err)
					}
					defer db.Close()
					ld, tr, err := m.open(db, c.s)
					if err != nil {
						t.Fatal(err)
					}
					trans, err := tr.Translate(c.xpath)
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
					for i, l := range c.loads {
						doc, err := xmltree.ParseString(l.doc)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := ld(doc); err != nil {
							t.Fatal(err)
						}
						_, misses := db.PlanCacheStats()
						if got := count(); got != l.want {
							t.Errorf("after load %d: %d nodes, want %d", i+1, got, l.want)
						}
						if _, m := db.PlanCacheStats(); m != misses+1 {
							t.Errorf("the run after load %d was not a plan-cache miss (%d -> %d misses)", i+1, misses, m)
						}
						hits, _ := db.PlanCacheStats()
						count()
						if h, _ := db.PlanCacheStats(); h != hits+1 {
							t.Fatalf("second run after load %d was no plan-cache hit (%d -> %d hits): the test needs a cached plan", i+1, hits, h)
						}
						plan, err := db.Explain(trans.Stmt)
						if err != nil {
							t.Fatal(err)
						}
						if !strings.Contains(plan, l.plan) {
							t.Errorf("plan after load %d lacks %q:\n%s", i+1, l.plan, plan)
						}
					}
				})
			}
		})
	}
}
