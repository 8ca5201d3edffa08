package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dblp"
	"repro/internal/schema"
	"repro/internal/xmark"
)

var update = flag.Bool("update", false, "rewrite testdata/ golden files from the current translators")

// adhocGolden is one instance of each of the benchmark's six ad-hoc
// query templates (benchmark/queries.go; the texts are copied, that
// module is not importable from here).
var adhocGolden = []struct{ name, query string }{
	{"person_name", "/site/people/person[@id='person0']/name"},
	{"q9_bidders", "/site/open_auctions/open_auction[@id='open_auction0']/bidder/preceding-sibling::bidder"},
	{"q21_keywords", "/site/regions/*/item[@id='item0']/description//keyword/text()"},
	{"person_watches", "//person[@id='person0']/watches/watch"},
	{"closed_by_buyer", "/site/closed_auctions/closed_auction[buyer/@person='person0']/price"},
	{"category_name", "/site/categories/category[@id='category0']/name"},
}

// TestGoldenSQL pins the rendered SQL of the Figure 3 corpus under
// both mappings and of the ad-hoc templates under the schema-aware
// one. The rendered text is the engine's plan-cache key, so a
// byte-identical golden means identical plans on every benchmark
// workload; a translator refactor must leave it unchanged.
func TestGoldenSQL(t *testing.T) {
	var out bytes.Buffer
	emit := func(label, query string, translate func(string) (*Translation, error)) {
		t.Helper()
		trans, err := translate(query)
		if err != nil {
			t.Fatalf("%s: Translate(%q): %v", label, query, err)
		}
		fmt.Fprintf(&out, "-- %s: %s\n%s\n\n", label, query, trans.SQL)
	}
	corpus := func(name string, s *schema.Schema, queries []struct{ ID, XPath string }) {
		aware, edge := New(s, nil), NewEdge(nil)
		for _, q := range queries {
			emit(name+"/"+q.ID+"/aware", q.XPath, aware.Translate)
			emit(name+"/"+q.ID+"/edge", q.XPath, edge.Translate)
		}
	}
	corpus("xmark", xmark.Schema(), xmark.Queries)
	corpus("dblp", dblp.Schema(), dblp.Queries)
	aware := New(xmark.Schema(), nil)
	for _, q := range adhocGolden {
		emit("adhoc/"+q.name+"/aware", q.query, aware.Translate)
	}

	golden := filepath.Join("testdata", "golden_sql.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/core -run TestGoldenSQL -update)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		gotLines, wantLines := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("golden SQL differs at line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("golden SQL differs in length: got %d lines, want %d", len(gotLines), len(wantLines))
	}
}
