package accel

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/native"
	"repro/internal/shred"
	"repro/internal/xmltree"
)

func setup(t testing.TB) (*Translator, *shred.AccelStore, *native.Evaluator, *xmltree.Document) {
	t.Helper()
	doc, err := xmltree.ParseString(
		`<A x="3"><B><C><D x="4">4</D></C><C><E><F>2</F><F>7</F></E></C><G/></B><B><G><G/></G></B></A>`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := shred.NewAccel()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(doc); err != nil {
		t.Fatal(err)
	}
	return New(), st, native.New(doc), doc
}

func check(t *testing.T, tr *Translator, st *shred.AccelStore, ev *native.Evaluator, q string) {
	t.Helper()
	trans, err := tr.Translate(q)
	if err != nil {
		t.Fatalf("Translate(%q): %v", q, err)
	}
	res, err := st.DB.RunWithOptionsContext(nil, trans.Stmt, engine.ExecOptions{})
	if err != nil {
		t.Fatalf("Run(%q = %s): %v", q, trans.SQL, err)
	}
	got := make([]int64, 0, len(res.Rows))
	for _, r := range res.Rows {
		got = append(got, r[0].I)
	}
	items, err := ev.EvalString(q)
	if err != nil {
		t.Fatalf("oracle(%q): %v", q, err)
	}
	seen := map[int64]bool{}
	want := []int64{}
	for _, it := range items {
		id := it.Node.ID
		if !it.IsAttr() && it.Node.Kind == xmltree.Text {
			id = it.Node.Parent.ID
		}
		if !seen[id] {
			seen[id] = true
			want = append(want, id)
		}
	}
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n got %v\nwant %v\nSQL: %s", q, got, want, trans.SQL)
	}
}

func TestAccelEndToEnd(t *testing.T) {
	tr, st, ev, _ := setup(t)
	queries := []string{
		"/A",
		"/A/B",
		"/A/B/C",
		"//F",
		"/A//F",
		"//G//G",
		"/A/*",
		"/A/B/*",
		"//C/*/F",
		"/descendant-or-self::G",
		"/A[@x=3]/B/C//F",
		"/A[@x=4]/B",
		"/A[@x]/B",
		"//F[. = 2]",
		"//F[text() = 2]",
		"/A/B[C/E/F=2]",
		"/A/B[C]",
		"/A/B[not(C)]",
		"/A/B[C and G]",
		"/A/B[C or G]",
		"//F/parent::E",
		"//F/ancestor::B",
		"//F/parent::E/ancestor::B",
		"//F/ancestor-or-self::F",
		"//G/ancestor::G",
		"/A/B/C/following-sibling::G",
		"//G/preceding-sibling::C",
		"//D/following::F",
		"//F/preceding::D",
		"//F[parent::E]",
		"//F[parent::E or ancestor::G]",
		"/A/B[C/*]",
		"/A/B/C/D/text()",
		"/A/@x",
		"//D[@x]",
		"//D[@x='4']",
		"/A/B/C[2]",
		"/A/B/C[position()=1]",
		"//E[F = F]",
		"//D[. != /A/B/C/E/F]",
		"/A/B/C | /A/B/G",
		"//*[@x]",
		"//*",
	}
	for _, q := range queries {
		check(t, tr, st, ev, q)
	}
}

func TestOneJoinPerStep(t *testing.T) {
	tr, _, _, _ := setup(t)
	// The accelerator joins once per location step — the behaviour the
	// PPF technique avoids.
	trans, err := tr.Translate("/A/B/C/E/F")
	if err != nil {
		t.Fatal(err)
	}
	if trans.Joins != 5 {
		t.Errorf("joins = %d, want 5 (one per step): %s", trans.Joins, trans.SQL)
	}
	if got := strings.Count(trans.SQL, "accel"); got != 5 {
		t.Errorf("accel occurrences = %d: %s", got, trans.SQL)
	}
}

func TestDescendantWindowIsStakedOut(t *testing.T) {
	tr, _, _, _ := setup(t)
	trans, err := tr.Translate("/A//F")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trans.SQL, "BETWEEN v1.pre + 1 AND v1.pre + v1.size") {
		t.Errorf("expected two-sided descendant window: %s", trans.SQL)
	}
}

func TestAccelErrors(t *testing.T) {
	tr, _, _, _ := setup(t)
	for _, q := range []string{
		"//F[last()]",
		"//F[count(x) = 1]",
	} {
		if _, err := tr.Translate(q); err == nil {
			t.Errorf("Translate(%q) should fail", q)
		}
	}
}
