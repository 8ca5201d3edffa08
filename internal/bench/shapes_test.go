package bench

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/xmltree"
	"repro/xrel"
)

// The shape path (core.Translator.Prepare + engine.Prepared.RunArgs,
// which is what xrel.Store.Query runs) against the literal path
// (Translate + RunWithOptionsContext) and the native oracle.

// adhocFormats are the benchmark's six ad-hoc templates (the engine's
// golden-rows harness runs one instance of each) with the element whose
// @id values instantiate them.
var adhocFormats = []struct{ name, format, keyOf string }{
	{"person_name", "/site/people/person[@id=%s]/name", "person"},
	{"q9_bidders", "/site/open_auctions/open_auction[@id=%s]/bidder/preceding-sibling::bidder", "open_auction"},
	{"q21_keywords", "/site/regions/*/item[@id=%s]/description//keyword/text()", "item"},
	{"person_watches", "//person[@id=%s]/watches/watch", "person"},
	{"closed_by_buyer", "/site/closed_auctions/closed_auction[buyer/@person=%s]/price", "person"},
	{"category_name", "/site/categories/category[@id=%s]/name", "category"},
}

// nastyKeys are values no document holds, quoted as XPath wants them.
var nastyKeys = []string{`''`, `"it's"`, `"' OR '1'='1"`, `'%'`, `'naïve ☃'`, `'person'`, `'say "hi"'`}

// idsOf lists the @id values of the document's elements of one name,
// quoted.
func idsOf(doc *xmltree.Document, name string) []string {
	var out []string
	for _, n := range doc.Nodes() {
		if n.Kind == xmltree.Element && n.Name == name {
			if id, ok := n.Attr("id"); ok {
				out = append(out, "'"+id+"'")
			}
		}
	}
	return out
}

// shapeIDs answers a query on the shape path, returning the ids and the
// SQL text of the binding.
func shapeIDs(tr *core.Translator, db *engine.DB, q string, opts engine.ExecOptions) ([]int64, string, error) {
	sh, args, err := tr.Prepare(q)
	if err != nil {
		return nil, "", err
	}
	res, err := sh.Prepared(db).RunArgs(nil, args, opts)
	if err != nil {
		return nil, "", err
	}
	ids := make([]int64, len(res.Rows))
	for i, r := range res.Rows {
		ids[i] = r[0].I
	}
	return ids, sh.SQL(args), nil
}

func sameIDs(a, b []int64) bool { return len(a)+len(b) == 0 || reflect.DeepEqual(a, b) }

// TestShapePathDifferential: the six ad-hoc templates with every id of
// an XMark document and keys no document holds, and the Figure 3
// statements, under both mappings, each answered three ways — shape
// path, literal path, native oracle — return one node set; the shape
// path's SQL text is the literal translation's byte for byte; and a
// store that only ever ran the shape path missed its plan cache once
// per shape.
func TestShapePathDifferential(t *testing.T) {
	xm, err := NewXMark(0.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDBLP(0.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range adhocFormats {
		keys := append(idsOf(xm.Doc, f.keyOf), nastyKeys...)
		if len(keys) <= len(nastyKeys) {
			t.Fatalf("%s: no %s ids in the document", f.name, f.keyOf)
		}
		for _, k := range keys {
			xm.Queries = append(xm.Queries, Query{ID: f.name, XPath: fmt.Sprintf(f.format, k)})
		}
	}
	for _, w := range []*Workload{xm, db} {
		store, err := xrel.Open(w.Schema)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Load(w.Doc); err != nil {
			t.Fatal(err)
		}
		// Fresh translators and databases for the shape path, so that the
		// cache counters below are its alone.
		fresh := &Workload{}
		if err := fresh.load(w.Doc, w.Schema); err != nil {
			t.Fatal(err)
		}
		shapes := map[string]bool{}
		for _, q := range w.Queries {
			want, err := w.OracleIDs(q)
			if err != nil {
				t.Fatalf("%s: oracle: %v", q.XPath, err)
			}
			res, err := store.Query(q.XPath)
			if err != nil {
				t.Fatalf("%s: %v", q.XPath, err)
			}
			got := make([]int64, len(res.Nodes))
			for i, n := range res.Nodes {
				got[i] = n.ID
			}
			if !sameIDs(got, want) {
				t.Errorf("%s: xrel.Query returns %v, the oracle %v", q.XPath, got, want)
			}
			for _, sys := range []System{PPF, EdgePPF} {
				tr, lit := fresh.ppf, w.ppf
				if sys == EdgePPF {
					tr, lit = fresh.edgeTr, w.edgeTr
				}
				got, sql, err := shapeIDs(tr, fresh.dbFor(sys), q.XPath, engine.ExecOptions{})
				if err != nil {
					t.Fatalf("%s on %s: %v", q.XPath, sys, err)
				}
				literal, err := w.Run(sys, q)
				if err != nil {
					t.Fatalf("%s on %s: %v", q.XPath, sys, err)
				}
				if !sameIDs(got, want) || !sameIDs(literal, want) {
					t.Errorf("%s on %s: shape path %v, literal path %v, oracle %v", q.XPath, sys, got, literal, want)
				}
				trans, err := lit.Translate(q.XPath)
				if err != nil {
					t.Fatal(err)
				}
				if sql != trans.SQL || (sys == PPF && res.SQL != trans.SQL) {
					t.Errorf("%s on %s: SQL of the shape path\n %s\nof xrel.Query\n %s\nof Translate\n %s", q.XPath, sys, sql, res.SQL, trans.SQL)
				}
				if sys == PPF {
					sh, _, _ := tr.Prepare(q.XPath)
					shapes[sh.Translation.SQL] = true
				}
			}
		}
		for _, sys := range []System{PPF, EdgePPF} {
			_, misses := fresh.dbFor(sys).PlanCacheStats()
			if misses > uint64(len(shapes)) {
				t.Errorf("%s on %s: %d plan-cache misses for %d shapes (%d texts)", w.Name, sys, misses, len(shapes), len(w.Queries))
			}
		}
		if _, _, misses := store.PlanCacheStats(); misses > uint64(len(shapes)) {
			t.Errorf("%s: xrel store: %d plan-cache misses for %d shapes", w.Name, misses, len(shapes))
		}
		t.Logf("%s: %d texts, %d shapes", w.Name, len(w.Queries), len(shapes))
	}
}

// TestShapeSkewedFirstValue: a plan compiled for a key the document does
// not hold (estimate: no rows) then meets the one value every row holds.
// The shape compiles once — the plan the first value chose serves every
// binding — and every binding returns the oracle's rows, at GOMAXPROCS
// 1 and 4.
func TestShapeSkewedFirstValue(t *testing.T) {
	w, err := NewXMark(0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const format = "/site/people/person[address/country=%s]/name"
	values := []string{"'Atlantis'", "'United States'", "'United States'", "'Atlantis'", "'United States'", "'United States'", "'Utopia'", "'United States'"}
	for _, sys := range []System{PPF, EdgePPF} {
		tr, db := w.ppf, w.dbFor(sys)
		if sys == EdgePPF {
			tr = w.edgeTr
		}
		_, before := db.PlanCacheStats()
		for i, v := range values {
			q := Query{XPath: fmt.Sprintf(format, v)}
			want, err := w.OracleIDs(q)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(v, "United") == (len(want) == 0) {
				t.Fatalf("fixture: %s selects %d", q.XPath, len(want))
			}
			runtime.GOMAXPROCS(1 + 3*(i%2))
			got, _, err := shapeIDs(tr, db, q.XPath, engine.ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(got, want) {
				t.Errorf("%s on %s, call %d: %d rows, oracle %d", q.XPath, sys, i, len(got), len(want))
			}
		}
		if _, misses := db.PlanCacheStats(); misses-before != 1 {
			t.Errorf("%s: the shape compiled %d times, want once", sys, misses-before)
		}
	}
}
