package sqlast

import (
	"reflect"
	"strings"
	"testing"
)

func TestRenderPaperTable3Example(t *testing.T) {
	// The shape of Table 3 (1): '/A[@x=3]/B/C//F'.
	s := &Select{
		Distinct: true,
		Cols: []SelectCol{
			{Expr: C("F", "id")},
			{Expr: C("F", "dewey_pos")},
			{Expr: C("F", "text")},
		},
		From: []TableRef{
			{Table: "A"}, {Table: "F"}, {Table: "paths", Alias: "F_paths"},
		},
		Where: And(
			Eq(C("F", "path_id"), C("F_paths", "id")),
			RegexpLike(C("F_paths", "path"), "^/A/B/C/(.+/)?F$"),
			&Between{
				X:  C("F", "dewey_pos"),
				Lo: C("A", "dewey_pos"),
				Hi: &Binary{Op: OpConcat, L: C("A", "dewey_pos"), R: Bytes([]byte{0xFF})},
			},
			Eq(C("A", "x"), Int(3)),
		),
		OrderBy: []OrderKey{{Expr: C("F", "dewey_pos")}},
	}
	got := Render(s)
	want := "SELECT DISTINCT F.id, F.dewey_pos, F.text " +
		"FROM A, F, paths F_paths " +
		"WHERE F.path_id = F_paths.id " +
		"AND REGEXP_LIKE(F_paths.path, '^/A/B/C/(.+/)?F$') " +
		"AND F.dewey_pos BETWEEN A.dewey_pos AND A.dewey_pos || X'FF' " +
		"AND A.x = 3 ORDER BY F.dewey_pos"
	if got != want {
		t.Errorf("Render:\n got %s\nwant %s", got, want)
	}
}

func TestParseRenderRoundTrip(t *testing.T) {
	statements := []string{
		"SELECT a FROM t",
		"SELECT DISTINCT a, b AS bb FROM t1, t2 x WHERE a = 1",
		"SELECT a FROM t WHERE a BETWEEN 1 AND 2 + 3 ORDER BY a DESC",
		"SELECT a FROM t WHERE x IS NULL AND y IS NOT NULL",
		"SELECT a FROM t WHERE NOT (a = 1 OR b = 2)",
		"SELECT a FROM t WHERE REGEXP_LIKE(p, '^/A/.*$') AND q = 'it''s'",
		"SELECT a FROM t WHERE EXISTS (SELECT NULL FROM u WHERE u.id = t.id)",
		"SELECT a FROM t WHERE NOT EXISTS (SELECT NULL FROM u)",
		"SELECT a FROM t WHERE d > X'01FF' || X'FF'",
		"SELECT a FROM t WHERE (SELECT COUNT(*) FROM u WHERE u.p = t.id) = 2",
		"SELECT a FROM t1 UNION SELECT a FROM t2 ORDER BY a",
		"SELECT a FROM t WHERE a * 2 + 1 >= 7 AND b % 2 = 1 AND c / 2 = 3",
		"SELECT a FROM t WHERE a <> 4",
		"SELECT NULL FROM t",
		"SELECT a FROM t WHERE f = 1.5",
		"SELECT a FROM t WHERE a = -3",
		"SELECT a FROM t WHERE a = ?1 AND b > ?2:int AND EXISTS (SELECT NULL FROM u WHERE u.f < ?3:float AND u.a = ?1)",
	}
	for _, src := range statements {
		st, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		r1 := Render(st)
		st2, err := Parse(r1)
		if err != nil {
			t.Errorf("reparse of %q (from %q): %v", r1, src, err)
			continue
		}
		if r2 := Render(st2); r1 != r2 {
			t.Errorf("unstable render: %q -> %q", r1, r2)
		}
	}
}

func TestParseEquivalentTree(t *testing.T) {
	// Text must parse into the same tree the builders produce.
	got, err := Parse("SELECT DISTINCT F.id FROM F WHERE F.x = 3 AND F.p BETWEEN X'01' AND X'01' || X'FF'")
	if err != nil {
		t.Fatal(err)
	}
	want := &Select{
		Distinct: true,
		Cols:     []SelectCol{{Expr: C("F", "id")}},
		From:     []TableRef{{Table: "F"}},
		Where: And(
			Eq(C("F", "x"), Int(3)),
			&Between{
				X:  C("F", "p"),
				Lo: Bytes([]byte{0x01}),
				Hi: &Binary{Op: OpConcat, L: Bytes([]byte{0x01}), R: Bytes([]byte{0xFF})},
			},
		),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tree mismatch:\n got %#v\nwant %#v", got, want)
	}
}

func TestPrecedenceParsing(t *testing.T) {
	st, err := Parse("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
	if err != nil {
		t.Fatal(err)
	}
	w := st.(*Select).Where.(*Binary)
	if w.Op != OpOr {
		t.Fatalf("top op = %v, want OR", w.Op)
	}
	if r := w.R.(*Binary); r.Op != OpAnd {
		t.Fatalf("right op = %v, want AND", r.Op)
	}
	// Parens override.
	st, err = Parse("SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3")
	if err != nil {
		t.Fatal(err)
	}
	w = st.(*Select).Where.(*Binary)
	if w.Op != OpAnd {
		t.Fatalf("top op = %v, want AND", w.Op)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE a =",
		"SELECT a FROM t WHERE a BETWEEN 1",
		"SELECT a FROM t WHERE a IS 3",
		"SELECT a FROM t ORDER",
		"SELECT a FROM t extra junk here",
		"SELECT a FROM t WHERE 'unterminated",
		"SELECT a FROM t WHERE X'zz' = 1",
		"SELECT a FROM t WHERE EXISTS x",
		"SELECT a FROM t WHERE COUNT(a) = 1",
		"SELECT a FROM t WHERE f(",
		"SELECT a FROM t WHERE t. = 1",
		"UPDATE t SET a = 1",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestHelpers(t *testing.T) {
	if And() != nil || Or() != nil {
		t.Error("empty And/Or should be nil")
	}
	e := Eq(C("t", "a"), Int(1))
	if And(nil, e, nil) != e {
		t.Error("And with single non-nil should return it")
	}
	both := And(e, e)
	if b, ok := both.(*Binary); !ok || b.Op != OpAnd {
		t.Error("And of two should be Binary AND")
	}
	if o, ok := Or(e, e).(*Binary); !ok || o.Op != OpOr {
		t.Error("Or of two should be Binary OR")
	}
	s := &Select{From: []TableRef{{Table: "t", Alias: "x"}}}
	if !s.HasTable("x") || s.HasTable("t") {
		t.Error("HasTable should use the effective name")
	}
	s.AddConjunct(nil)
	if s.Where != nil {
		t.Error("AddConjunct(nil) should be a no-op")
	}
	s.AddConjunct(e)
	s.AddConjunct(e)
	if _, ok := s.Where.(*Binary); !ok {
		t.Error("AddConjunct should conjoin")
	}
}

func TestRenderEdgeCases(t *testing.T) {
	// String escaping.
	if got := Str("it's").String(); got != "'it''s'" {
		t.Errorf("string literal = %s", got)
	}
	// Float rendering stays a float.
	if got := (&FloatLit{Value: 2}).String(); got != "2.0" {
		t.Errorf("float literal = %s", got)
	}
	// NOT of OR parenthesizes.
	e := &Not{X: Or(Eq(C("", "a"), Int(1)), Eq(C("", "b"), Int(2)))}
	if got := e.String(); got != "NOT (a = 1 OR b = 2)" {
		t.Errorf("NOT rendering = %s", got)
	}
	// Union ORDER BY.
	u := &Union{
		Selects: []*Select{
			{Cols: []SelectCol{{Expr: C("", "a")}}, From: []TableRef{{Table: "t"}}},
			{Cols: []SelectCol{{Expr: C("", "a")}}, From: []TableRef{{Table: "u"}}},
		},
		OrderBy: []OrderKey{{Expr: C("", "a")}},
	}
	if got := Render(u); got != "SELECT a FROM t UNION SELECT a FROM u ORDER BY a" {
		t.Errorf("union rendering = %s", got)
	}
	if !strings.Contains((&Exists{Select: u.Selects[0]}).String(), "EXISTS (SELECT") {
		t.Error("Exists rendering wrong")
	}
}

// TestRenderSplitSplice: the text spliced from the split rendering is
// the rendering of the statement with the literals in the slots' places
// (MapStatementLeaves), quotes doubled, for a slot that occurs twice and
// slots out of order; what holds no slot is shared, not copied.
func TestRenderSplitSplice(t *testing.T) {
	st := MustParse("SELECT DISTINCT t.a AS id FROM t, u WHERE u.x = ?2:int AND (t.a = ?1 OR t.b = ?1) AND REGEXP_LIKE(t.p, '^/a/?1$') AND EXISTS (SELECT NULL FROM v WHERE v.f >= ?3:float) ORDER BY t.a")
	lits := []Expr{Str("it's ?2"), Int(40), &FloatLit{Value: 40.5}}
	bound := MapStatementLeaves(st, func(leaf Expr) Expr {
		if p, ok := leaf.(*Param); ok {
			return lits[p.Slot]
		}
		return leaf
	})
	want := "SELECT DISTINCT t.a AS id FROM t, u WHERE u.x = 40 AND (t.a = 'it''s ?2' OR t.b = 'it''s ?2') AND REGEXP_LIKE(t.p, '^/a/?1$') AND EXISTS (SELECT NULL FROM v WHERE v.f >= 40.5) ORDER BY t.a"
	if got := Render(bound); got != want {
		t.Errorf("bound statement renders\n %s\nwant\n %s", got, want)
	}
	if got := RenderSplit(st).Splice(lits); got != want {
		t.Errorf("spliced text\n %s\nwant\n %s", got, want)
	}
	if HasParam(bound.(*Select).Where) || !HasParam(st.(*Select).Where) {
		t.Error("binding must replace every slot and leave the shape's statement alone")
	}
	re := func(s Statement) Expr { return flattenAndForTest(s.(*Select).Where)[2] }
	if re(bound) != re(st) {
		t.Error("a conjunct without a slot was copied, not shared")
	}
	if got := MapStatementLeaves(bound, func(leaf Expr) Expr { return leaf }); got != bound {
		t.Error("an identity mapping must return the statement itself")
	}
	if sp := RenderSplit(bound); sp.Splice(nil) != want {
		t.Error("a statement without slots splits into its one part")
	}
}

func flattenAndForTest(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(flattenAndForTest(b.L), flattenAndForTest(b.R)...)
	}
	return []Expr{e}
}
