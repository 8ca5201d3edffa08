package core

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/native"
	"repro/internal/sqlast"
	"repro/internal/xpath"
)

// liftCases are the lifting rule as a table: a text, how many of its
// literals are slots, and a second text that differs from it in one
// literal — which is the same shape exactly when that literal was
// lifted. The not-lifted half doubles as FuzzShapeBind's seeds.
var liftCases = []struct {
	query string
	slots int
	other string
	same  bool
}{
	// Lifted: the direct operand of a comparison with a value path.
	{"/A/B/C/D[@x='4']", 1, "/A/B/C/D[@x='5']", true},
	{"/A/B/C/D[@x='4']", 1, `/A/B/C/D[@x="it's"]`, true},
	{"/A/B/C[D='4']", 1, "/A/B/C[D='']", true},
	{"/A/B/C/E[F > 2]", 1, "/A/B/C/E[F > 3]", true},
	{"/A/B/C/E[F > 2]", 1, "/A/B/C/E[F > 2.0]", true},  // 2.0 is the integer 2
	{"/A/B/C/E[F > 2]", 1, "/A/B/C/E[F > 2.5]", false}, // a float slot is another kind
	{"/A/B/C/E[F > 2]", 1, "/A/B/C/E[F > '2']", false}, // and so is a text one
	{"/A/B/C/E[F > 2]", 1, "/A/B/C/E[F  >  2]", false}, // the text outside the slots is the key
	{"/A/B/C/E[2 < F]", 1, "/A/B/C/E[7 < F]", true},
	{"//D[. = '4']", 1, "//D[. = '9']", true},
	{"//D[text() = '4']", 1, "//D[text() = '9']", true},
	{"/A/B[C/D/@x = '4' and C/E/F = '7']", 2, "/A/B[C/D/@x = '1' and C/E/F = '2']", true},
	{"/A/B[C/D/@x = '4' or not(C/E/F = '7')]", 2, "/A/B[C/D/@x = 'p' or not(C/E/F = 'q')]", true},
	{"/A/B[count(C[D='4']) > 0]", 1, "/A/B[count(C[D='5']) > 0]", true},
	{"/A/B/C[D='4']/D | //E[F='2']", 2, "/A/B/C[D='x']/D | //E[F='y']", true},
	// The comparison's constant is lifted, the arithmetic's operand read.
	{"/A/B/C/E[F * 2 > 4]", 1, "/A/B/C/E[F * 2 > 5]", true},
	{"/A/B/C/E[F * 2 > 4]", 1, "/A/B/C/E[F * 3 > 4]", false},
	// Not lifted: the translator folds, counts or reads these.
	{"/A/B[2]", 0, "/A/B[1]", false},
	{"/A/B[position() < 3]", 0, "/A/B[position() < 2]", false},
	{"/A/B[position() = last()]", 0, "/A/B[last()]", false},
	{"/A/B[count(C) > 1]", 0, "/A/B[count(C) > 0]", false},
	{"/A/B[count(C[D='4']) > 0]", 1, "/A/B[count(C[D='4']) > 1]", false},
	{"/A/B[1 = 0]", 0, "/A/B[1 = 1]", false},
	{"/A/B['x']", 0, "/A/B['']", false},
	{"/A/B['a' = 'b']", 0, "/A/B['a' = 'a']", false},
	{"/A/B/C/E[F = 2 + 1]", 0, "/A/B/C/E[F = 2 + 2]", false},
	{"/A/B/C/E[F > -1]", 0, "/A/B/C/E[F > -2]", false},
}

// notTranslated parse, and fail in the translator whatever is lifted:
// nothing of them is kept.
var notTranslated = []string{
	"/A/B[C/D/@x = 'x' + 1]",
	"/A/B[(C = 'x') = 1]",
	"/A/B[count(C = 'x') > 1]",
	"/A/B[C = 'x' = D]",
}

func TestLiftRule(t *testing.T) {
	s := paperSchema(t)
	for _, c := range liftCases {
		tr := New(s, nil)
		sh, args, err := tr.Prepare(c.query)
		if err != nil {
			t.Errorf("%s: %v", c.query, err)
			continue
		}
		if len(args) != c.slots {
			t.Errorf("%s: %d slots %v, want %d", c.query, len(args), args, c.slots)
		}
		other, _, err := tr.Prepare(c.other)
		if err != nil {
			t.Errorf("%s: %v", c.other, err)
			continue
		}
		if (other == sh) != c.same || len(tr.shapes.m) != map[bool]int{true: 1, false: 2}[c.same] {
			t.Errorf("%s and %s: same shape %v (%d entries), want %v", c.query, c.other, other == sh, len(tr.shapes.m), c.same)
		}
	}
	tr := New(s, nil)
	for _, q := range notTranslated {
		if _, err := xpath.Parse(q); err != nil {
			t.Errorf("%s: fixture does not parse: %v", q, err)
		}
		if _, _, err := tr.Prepare(q); err == nil {
			t.Errorf("%s: translated", q)
		}
	}
	if len(tr.shapes.m) != 0 {
		t.Errorf("%d shapes kept of texts that do not translate", len(tr.shapes.m))
	}
}

// plainly translates the text with no literal lifted: the same code
// with zero slots, which is what Translate was before there were shapes.
func plainly(t testing.TB, tr *Translator, q string) *Translation {
	t.Helper()
	e, err := xpath.Parse(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	trans, err := tr.TranslateExpr(e)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return trans
}

// TestShapeValues binds nasty values into shapes compiled for tame
// ones, under both mappings: the statement and its text are those of a
// translation that never lifted anything, the node set is the oracle's.
func TestShapeValues(t *testing.T) {
	strs := []string{`''`, `"it's"`, `"' OR '1'='1"`, `'%'`, `'naïve ☃'`, `'4'`, `'absent'`, `'say "hi"'`}
	nums := []string{`4`, `40`, `40.0`, `40.5`, `0`, `00`, `7.`, `.5`, `2`}
	aTr, aDB, aEv := setup(t)
	eTr, eDB, eEv := setupEdge(t)
	for _, m := range []struct {
		name string
		tr   *Translator
		db   *engine.DB
		ev   *native.Evaluator
	}{{"aware", aTr, aDB, aEv}, {"edge", eTr, eDB, eEv}} {
		name, tr, db, ev := m.name, m.tr, m.db, m.ev
		for _, format := range []string{"//D[@x = %s]", "/A/B/C[D = %s]/D", "//E[F >= %s]", "//E[%s < F]/F", "/A/B[C/D != %s and C/E/F = %s]"} {
			values := append(nums[:len(nums):len(nums)], strs...)
			if strings.ContainsAny(format, "<>") {
				// An order comparison with a string that is no number is
				// XPath's NaN and SQL's text order: the translation's old
				// disagreement with the oracle, not a shape's.
				values = nums
			}
			for _, v := range values {
				q := fmt.Sprintf(strings.ReplaceAll(format, "%s", "%[1]s"), v)
				sh, args, err := tr.Prepare(q)
				if err != nil {
					t.Fatalf("%s %s: %v", name, q, err)
				}
				want := plainly(t, tr, q)
				got := sh.Bind(args)
				if got.SQL != want.SQL || sh.SQL(args) != want.SQL || sqlast.Render(got.Stmt) != want.SQL {
					t.Errorf("%s %s:\n bound   %s\n spliced %s\n stmt    %s\n plain   %s", name, q, got.SQL, sh.SQL(args), sqlast.Render(got.Stmt), want.SQL)
				}
				res, err := sh.Prepared(db).RunArgs(nil, args, engine.ExecOptions{})
				if err != nil {
					t.Fatalf("%s %s: %v", name, q, err)
				}
				ids := make([]int64, len(res.Rows))
				for i, r := range res.Rows {
					ids[i] = r[0].I
				}
				oracle, err := ev.ElementIDs(q)
				if err != nil {
					t.Fatal(err)
				}
				if len(ids)+len(oracle) > 0 && !reflect.DeepEqual(ids, oracle) {
					t.Errorf("%s %s: shape path %v, oracle %v", name, q, ids, oracle)
				}
				if lit := runQuery(t, tr, db, q); len(ids)+len(lit) > 0 && !reflect.DeepEqual(ids, lit) {
					t.Errorf("%s %s: shape path %v, literal path %v", name, q, ids, lit)
				}
			}
		}
		if n := len(tr.shapes.m); n > 5*3 {
			t.Errorf("%s: %d shapes for five formats of at most three kinds", name, n)
		}
	}
}

// TestShapeTableBound: ten thousand distinct shapes leave the table
// within the engine's plan-cache cap, and a shape met again after the
// table was dropped translates to the same statement.
func TestShapeTableBound(t *testing.T) {
	tr := New(paperSchema(t), nil)
	first, _, err := tr.Prepare("/A/B[1]")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10000; i++ {
		if _, _, err := tr.Prepare("/A/B[" + strconv.Itoa(i) + "]"); err != nil {
			t.Fatal(err)
		}
		if n := len(tr.shapes.m); n > engine.PlanCacheCap {
			t.Fatalf("%d shapes after %d texts, cap is %d", n, i, engine.PlanCacheCap)
		}
	}
	again, _, err := tr.Prepare("/A/B[1]")
	if err != nil {
		t.Fatal(err)
	}
	if again == first || again.Translation.SQL != first.Translation.SQL {
		t.Errorf("the table never dropped the first shape, or re-translated it differently")
	}
}

// FuzzShapeBind: for any XPath that parses, translating with its slots
// marked and binding the values back renders the SQL that translating
// with nothing marked does (same code, zero slots), under both
// mappings; the slot spans are the literals' own, in source order; and
// a text that differs in a slot's value is the same shape, whose
// binding is that text's own translation — the value was not read.
func FuzzShapeBind(f *testing.F) {
	for _, c := range liftCases {
		f.Add(c.query)
		f.Add(c.other)
	}
	for _, q := range notTranslated {
		f.Add(q)
	}
	s := paperSchema(f)
	f.Fuzz(func(t *testing.T, src string) {
		e, err := xpath.Parse(src)
		if err != nil {
			return
		}
		lits := lift(e, nil)
		key, args := shapeKey(src, lits, nil)
		// Cutting the spans and putting them back is the input, and each
		// span reads as its literal.
		var rebuilt, changed strings.Builder
		from := 0
		for i, l := range lits {
			pos, end := span(l)
			if pos < from || end <= pos || end > len(src) {
				t.Fatalf("%q: slot %d spans [%d,%d) after %d", src, i, pos, end, from)
			}
			rebuilt.WriteString(src[from:pos] + src[pos:end])
			changed.WriteString(src[from:pos])
			switch x := l.(type) {
			case *xpath.Literal:
				if src[pos+1:end-1] != x.Value {
					t.Fatalf("%q: slot %d spans %q, its value is %q", src, i, src[pos:end], x.Value)
				}
				changed.WriteString((&xpath.Literal{Value: x.Value + "x"}).String())
			case *xpath.Number:
				if v, err := strconv.ParseFloat(src[pos:end], 64); err != nil || v != x.Value {
					t.Fatalf("%q: slot %d spans %q, its value is %v", src, i, src[pos:end], x.Value)
				}
				changed.WriteString((&xpath.Number{Value: x.Value + 1}).String())
			}
			from = end
		}
		if rebuilt.WriteString(src[from:]); rebuilt.String() != src {
			t.Fatalf("%q: re-inserting the slots gives %q", src, rebuilt.String())
		}
		changed.WriteString(src[from:])

		for _, tr := range []*Translator{New(s, nil), NewEdge(nil)} {
			plain, plainErr := tr.TranslateExpr(e)
			sh, bound, err := tr.Prepare(src)
			if (err == nil) != (plainErr == nil) {
				t.Fatalf("%q: with slots: %v; without: %v", src, err, plainErr)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(bound, args) {
				t.Fatalf("%q: Prepare binds %v, the slots hold %v", src, bound, args)
			}
			if got := sh.Bind(args); got.SQL != plain.SQL || sqlast.Render(got.Stmt) != plain.SQL || sh.SQL(args) != plain.SQL {
				t.Fatalf("%q:\n bound %s\n plain %s", src, got.SQL, plain.SQL)
			}
			if len(lits) == 0 {
				continue
			}
			// The neighbouring text: another value in every slot.
			other := changed.String()
			oe, err := xpath.Parse(other)
			if err != nil {
				t.Fatalf("%q: its neighbour %q does not parse: %v", src, other, err)
			}
			okey, oargs := shapeKey(other, lift(oe, nil), nil)
			if string(okey) != string(key) {
				// A number that crossed from integral to not (1e15) is another
				// shape; anything else is a lifting bug.
				if len(okey) == len(key) {
					continue
				}
				t.Fatalf("%q and %q differ only in slot values and have keys %q and %q", src, other, key, okey)
			}
			osh, _, err := tr.Prepare(other)
			if err != nil || osh != sh {
				t.Fatalf("%q: neighbour %q is not the same shape: %v", src, other, err)
			}
			oplain, err := tr.TranslateExpr(oe)
			if err != nil {
				t.Fatalf("%q: neighbour %q: %v", src, other, err)
			}
			if got := sh.Bind(oargs); got.SQL != oplain.SQL {
				t.Fatalf("%q bound with the values of %q:\n bound %s\n plain %s", src, other, got.SQL, oplain.SQL)
			}
		}
	})
}
