package bench

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/shred"
)

var updateRows = flag.Bool("update", false, "rewrite testdata/golden_rows.txt from the current results")

// goldenRowsScale is large enough that every statement but Q11 selects
// something (Q11 selects nothing at any scale: no person1 bids before a
// person0), and small enough to run 24 times a statement in `make
// check`.
const goldenRowsScale = 0.1

// adhocQueries are one instance of each of the benchmark's six ad-hoc
// templates (benchmark/queries.go; that module is not importable from
// here), with keys that select something at goldenRowsScale.
var adhocQueries = []Query{
	{"person_name", "/site/people/person[@id='person7']/name"},
	{"q9_bidders", "/site/open_auctions/open_auction[@id='open_auction7']/bidder/preceding-sibling::bidder"},
	{"q21_keywords", "/site/regions/*/item[@id='item7']/description//keyword/text()"},
	{"person_watches", "//person[@id='person3']/watches/watch"},
	{"closed_by_buyer", "/site/closed_auctions/closed_auction[buyer/@person='person8']/price"},
	{"category_name", "/site/categories/category[@id='category7']/name"},
}

// rowsHash is the FNV-64a of a result's ids in order.
func rowsHash(res *engine.Result) string {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range res.Rows {
		id := uint64(r[0].I)
		for i := range b {
			b[i] = byte(id >> (8 * i))
		}
		_, _ = h.Write(b[:])
	}
	return fmt.Sprintf("%d:%016x", len(res.Rows), h.Sum64())
}

// TestGoldenRows is the planner's result-identity harness: the Figure 3
// statements and the six ad-hoc templates, under both mappings, each
// executed 24 times — in memory and persisted-closed-reopened, and on
// either store three rounds (the first plan, and the plans adaptive
// re-planning moves to) at GOMAXPROCS 1 and 4, batch size 1 and the
// default — must return one row list, ids in order: the native
// oracle's, and the one whose hash testdata/golden_rows.txt has
// committed. A planner change shows its results byte-identical to its
// parent's by leaving that file alone (-update rewrites it).
func TestGoldenRows(t *testing.T) {
	xm, err := NewXMark(goldenRowsScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	xm.Queries = append(xm.Queries, adhocQueries...)
	db, err := NewDBLP(goldenRowsScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	modes := []struct{ procs, batch int }{{1, 0}, {1, 1}, {4, 0}, {4, 1}}

	var lines []string
	for _, w := range []*Workload{xm, db} {
		for _, sys := range []System{PPF, EdgePPF} {
			// The persisted twin of the workload's store: loaded into a
			// directory, closed, and opened again.
			dir := t.TempDir()
			pdb, err := engine.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if sys == PPF {
				st, err := shred.NewSchemaAwareDB(pdb, w.Schema)
				if err != nil {
					t.Fatal(err)
				}
				if _, err = st.Load(w.Doc); err != nil {
					t.Fatal(err)
				}
			} else {
				st, err := shred.NewEdgeDB(pdb)
				if err != nil {
					t.Fatal(err)
				}
				if _, err = st.Load(w.Doc); err != nil {
					t.Fatal(err)
				}
			}
			if err := pdb.Close(); err != nil {
				t.Fatal(err)
			}
			if pdb, err = engine.Open(dir); err != nil {
				t.Fatal(err)
			}
			stores := []struct {
				name string
				db   *engine.DB
			}{{"in memory", w.dbFor(sys)}, {"reopened", pdb}}

			for _, q := range w.Queries {
				label := fmt.Sprintf("%s/%s/%s", strings.SplitN(w.Name, "-", 2)[0], q.ID, map[System]string{PPF: "aware", EdgePPF: "edge"}[sys])
				st, err := w.Translate(sys, q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				oracle, err := w.OracleIDs(q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := rowsHash(idRows(oracle))
				runs := 0
				for _, store := range stores {
					for round := 0; round <= 2; round++ {
						for _, m := range modes {
							runtime.GOMAXPROCS(m.procs)
							res, err := store.db.RunWithOptionsContext(nil, st, engine.ExecOptions{BatchSize: m.batch})
							if err != nil {
								t.Fatalf("%s %s round %d %+v: %v", label, store.name, round, m, err)
							}
							runs++
							if got := rowsHash(res); got != want {
								t.Errorf("%s %s round %d %+v: rows %s, the oracle's are %s", label, store.name, round, m, got, want)
							}
						}
					}
				}
				if runs != 24 {
					t.Fatalf("%s: %d runs, want 24", label, runs)
				}
				lines = append(lines, label+" "+want)
			}
			if err := pdb.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	sort.Strings(lines)

	golden := filepath.Join("testdata", "golden_rows.txt")
	if *updateRows {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(golden)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/bench -run TestGoldenRows -update)", err)
	}
	defer f.Close()
	var committed []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		committed = append(committed, sc.Text())
	}
	if len(committed) != len(lines) {
		t.Fatalf("%s holds %d statements, the harness runs %d", golden, len(committed), len(lines))
	}
	for i := range lines {
		if lines[i] != committed[i] {
			t.Errorf("rows differ from %s:\n got %s\nwant %s", golden, lines[i], committed[i])
		}
	}
}

// idRows wraps an id list as a one-column result.
func idRows(ids []int64) *engine.Result {
	res := &engine.Result{Rows: make([][]engine.Value, len(ids))}
	for i, id := range ids {
		res.Rows[i] = []engine.Value{engine.NewInt(id)}
	}
	return res
}
