package core

import (
	"strings"
	"testing"

	"repro/internal/native"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/xmltree"
)

// multiRootSchema has two document elements, exercising resolution
// from several roots.
func multiRootSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s, err := schema.NewBuilder("lib", "arch").
		Element("lib", "book").
		Element("arch", "book").
		Element("book", "title").
		Text("title").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMultiRootResolution(t *testing.T) {
	s := multiRootSchema(t)
	tr := New(s, nil)
	st, err := shred.NewSchemaAware(s)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.ParseString(`<lib><book><title>a</title></book></lib>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(doc); err != nil {
		t.Fatal(err)
	}
	// book is F-P (two root paths); '/lib/book' must filter or resolve.
	if s.Node("book").Mark != schema.FinitePaths {
		t.Fatalf("book mark = %s", s.Node("book").Mark)
	}
	got := runQuery(t, tr, st.DB, "/lib/book")
	if len(got) != 1 {
		t.Fatalf("ids = %v", got)
	}
	// The other root matches nothing in this store.
	got = runQuery(t, tr, st.DB, "/arch/book")
	if len(got) != 0 {
		t.Fatalf("ids = %v", got)
	}
	// '//book' spans both possibilities with one relation.
	trans, err := tr.Translate("//book")
	if err != nil {
		t.Fatal(err)
	}
	if trans.Selects != 1 {
		t.Errorf("selects = %d", trans.Selects)
	}
}

func TestSplittingLimit(t *testing.T) {
	// A schema with many same-level children and a wildcard chain can
	// exceed the combination cap.
	b := schema.NewBuilder("r")
	names := make([]string, 30)
	for i := range names {
		names[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	b.Element("r", names...)
	for _, n := range names {
		b.Element(n, names...)
	}
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.maxCombos = 16
	tr := New(s, &opts)
	if _, err := tr.Translate("/r/*/*"); err == nil {
		t.Fatal("combination explosion should be reported")
	}
}

func TestRelativeTopLevelRejected(t *testing.T) {
	tr, _, _ := setup(t)
	if _, err := tr.Translate("B/C"); err == nil {
		t.Fatal("relative top-level path should fail")
	}
}

func TestNonPathExpressionRejected(t *testing.T) {
	tr, _, _ := setup(t)
	if _, err := tr.Translate("//missing-axis::"); err == nil {
		t.Fatal("garbage should fail")
	}
}

func TestRootQuery(t *testing.T) {
	tr, st, ev := setup(t)
	check(t, tr, st, ev, "/")
}

func TestBackwardFirstFragmentRejected(t *testing.T) {
	tr, _, _ := setup(t)
	if _, err := tr.Translate("/parent::A"); err == nil {
		t.Fatal("backward first fragment at top level should fail")
	}
	if _, err := tr.Translate("/following::A"); err == nil {
		t.Fatal("horizontal first fragment at top level should fail")
	}
}

func TestChainedHorizontalFragments(t *testing.T) {
	tr, st, ev := setup(t)
	// horizontal then forward then backward, mixing everything.
	for _, q := range []string{
		"/A/B/C/following-sibling::C/E/F",
		"/A/B/C/following-sibling::G/preceding-sibling::C",
		"//E/preceding::D/parent::C",
		"//D/following::F/parent::E",
	} {
		check(t, tr, st, ev, q)
	}
}

func TestPredicateOnHorizontalStep(t *testing.T) {
	tr, st, ev := setup(t)
	for _, q := range []string{
		"//D/following::F[. = 2]",
		"/A/B/C/following-sibling::C[E]",
		"//G/preceding-sibling::C[D or E]",
	} {
		check(t, tr, st, ev, q)
	}
}

func TestNestedPredicates(t *testing.T) {
	tr, st, ev := setup(t)
	for _, q := range []string{
		"/A/B[C[D]]",
		"/A/B[C[E/F=2]]",
		"/A/B[C[not(D)] and G]",
		"//B[C[E[F]]]",
	} {
		check(t, tr, st, ev, q)
	}
}

func TestUnionWithEmptyBranch(t *testing.T) {
	tr, st, ev := setup(t)
	// One branch statically empty: union must still work.
	check(t, tr, st, ev, "/A/B/C | /A/Zz")
	trans, err := tr.Translate("/A/Zz | /A/Yy")
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(st, trans.Stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
	_ = ev
}

func TestCountPredicateVariants(t *testing.T) {
	tr, st, ev := setup(t)
	for _, q := range []string{
		"//E[count(F) = 2]",
		"//E[count(F) >= 1]",
		"//B[count(C) = 2]",
		"//B[count(C) = 0]",
		"//E[2 = count(F)]",
	} {
		check(t, tr, st, ev, q)
	}
	// count over an ambiguous path is rejected.
	if _, err := tr.Translate("/A/B[count(C/*) = 1]"); err == nil {
		t.Fatal("count over multi-relation path should fail")
	}
}

func TestStaticPredicates(t *testing.T) {
	tr, st, ev := setup(t)
	for _, q := range []string{
		"/A/B[1 = 1]",
		"/A/B['x']",
		"/A/B[2 > 3 or C]",
		"/A/B[not(1 = 2)]",
		"/A/B[1 + 1 = 2]",
	} {
		check(t, tr, st, ev, q)
	}
	trans, err := tr.Translate("/A/B[1 = 2]")
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(st, trans.Stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("statically false predicate returned rows")
	}
	_ = ev
}

func TestNotOverExists(t *testing.T) {
	tr, _, _ := setup(t)
	trans, err := tr.Translate("/A/B[not(C/E)]")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trans.SQL, "NOT EXISTS") {
		t.Errorf("not(path) should render NOT EXISTS: %s", trans.SQL)
	}
}

func TestArithmeticOnAttributeAndText(t *testing.T) {
	tr, st, ev := setup(t)
	for _, q := range []string{
		"//D[@x * 2 = 8]",
		"//F[2 * . = 4]",
		"//F[. - 1 = 1]",
		"//D[text() + 1 = 5]",
	} {
		check(t, tr, st, ev, q)
	}
}

// TestDifferentialDeepDoc uses a deeper recursive document to stress
// the I-P paths, the unanchored regexes and Dewey depth.
func TestDifferentialDeepDoc(t *testing.T) {
	s, err := schema.NewBuilder("r").
		Element("r", "g").
		Element("g", "g", "leaf").
		Text("leaf").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 12; i++ {
		b.WriteString("<g>")
	}
	b.WriteString("<leaf>1</leaf>")
	for i := 0; i < 12; i++ {
		b.WriteString("</g>")
	}
	b.WriteString("<g><leaf>2</leaf></g></r>")
	doc, err := xmltree.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	st, err := shred.NewSchemaAware(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(doc); err != nil {
		t.Fatal(err)
	}
	tr := New(s, nil)
	ev := native.New(doc)
	for _, q := range []string{
		"//g",
		"//g//g",
		"//g/g/g",
		"//leaf",
		"//g[leaf]",
		"//leaf/ancestor::g",
		"//g[not(g)]",
		"/r/g//leaf",
		"//g[leaf=2]",
		"//g/parent::g/parent::g",
	} {
		check(t, tr, st.DB, ev, q)
	}
}
