package plancheck

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/pathre"
	"repro/internal/sqlast"
)

// Finding is one certificate failure: a plan decision the checker
// could not justify, with a minimal counterexample in Detail.
type Finding struct {
	// Query labels the source query (corpus ID or generated label).
	Query string
	// SQL is the statement whose plan failed the check.
	SQL string
	// Rule names the violated obligation: "logical-extract",
	// "physical-extract", "join-order", "binding-order",
	// "access-path", "pipeline", "shape", "distinct", "projection",
	// "tables", "predicate-missing", "predicate-extra", "order",
	// "union", "normal-form", "omission", "estimate-provenance",
	// "resolution", "implied", "unnest", "params".
	Rule string
	// Detail is the minimal counterexample.
	Detail string
}

func (f Finding) String() string {
	s := fmt.Sprintf("[%s] %s", f.Rule, f.Detail)
	if f.Query != "" {
		s = f.Query + ": " + s
	}
	if f.SQL != "" {
		s += "\n  sql: " + f.SQL
	}
	return s
}

// Certificate records the validated proof of one plan's equivalence:
// every justified obligation in order, and the shared normal-form
// hash both sides reduced to.
type Certificate struct {
	SQL string
	// Steps are the validated obligations in check order.
	Steps []string
	// NormalHash is the normal form both sides hash to.
	NormalHash string
}

func (c *Certificate) step(format string, args ...any) {
	c.Steps = append(c.Steps, fmt.Sprintf(format, args...))
}

// CheckStatement compiles st on db (through the plan cache),
// decompiles the plan that would execute, and proves it equivalent to
// st. args are the values of st's parameter slots (nil: it has none).
// On success the certificate is returned with no findings; on failure
// the findings carry minimal counterexamples.
func CheckStatement(db *engine.DB, st sqlast.Statement, args []engine.Value) (*Certificate, []Finding) {
	sh, err := planShape(db, st, args)
	if err != nil {
		return nil, []Finding{{SQL: sqlast.Render(st), Rule: "physical-extract", Detail: err.Error()}}
	}
	return CheckShape(db, st, sh)
}

// errShapeOnly stops an execution once its plan's shape is in hand.
var errShapeOnly = errors.New("plancheck: shape extracted")

// planShape compiles st the way an execution with args does —
// engine.Prepared.RunArgs, the path xrel.Store.Query takes — and
// returns the shape of the plan that execution would run, stopping it
// there.
func planShape(db *engine.DB, st sqlast.Statement, args []engine.Value) (*engine.StmtShape, error) {
	var sh *engine.StmtShape
	_, err := db.PrepareStmt(st).RunArgs(nil, args, engine.ExecOptions{VerifyPlan: func(tr engine.PlanTrace) error {
		sh = tr.Shape
		return errShapeOnly
	}})
	if !errors.Is(err, errShapeOnly) {
		return nil, err
	}
	return sh, nil
}

// CheckShape proves an already-extracted plan shape equivalent to st.
// The split from CheckStatement exists for the verifier hook (which
// receives the shape with the trace) and for the mutation harness
// (which checks deliberately corrupted shapes).
func CheckShape(db *engine.DB, st sqlast.Statement, sh *engine.StmtShape) (*Certificate, []Finding) {
	cert := &Certificate{SQL: sh.SQL}
	var fs []Finding
	fail := func(rule, detail string) {
		fs = append(fs, Finding{SQL: sh.SQL, Rule: rule, Detail: detail})
	}

	lir, err := LogicalIR(db, st)
	if err != nil {
		fail("logical-extract", err.Error())
		return cert, fs
	}
	pir, err := PhysicalIR(sh)
	if err != nil {
		fail("physical-extract", err.Error())
		return cert, fs
	}

	// Structural certificate obligations on the physical side.
	switch {
	case sh.Select != nil:
		sel, _ := st.(*sqlast.Select)
		fs = append(fs, tagSQL(sh.SQL, checkShapeSelect(db, sh.Select, sel, nil, nil, "select", cert))...)
	case sh.Union != nil:
		u, _ := st.(*sqlast.Union)
		for i, br := range sh.Union.Branches {
			var sel *sqlast.Select
			if u != nil && i < len(u.Selects) {
				sel = u.Selects[i]
			}
			fs = append(fs, tagSQL(sh.SQL, checkShapeSelect(db, br, sel, nil, mergeKeyOf(sh.Union, br), fmt.Sprintf("branch[%d]", i), cert))...)
		}
		fs = append(fs, tagSQL(sh.SQL, checkUnionOrder(db, sh.Union, cert))...)
	default:
		fail("shape", "plan shape has neither select nor union")
		return cert, fs
	}
	fs = append(fs, checkParams(st, sh, cert)...)

	// Normal-form comparison.
	switch {
	case lir.Select != nil && pir.Select != nil:
		fs = append(fs, tagSQL(sh.SQL, compareSelIR("select", lir.Select, pir.Select, cert))...)
	case lir.Union != nil && pir.Union != nil:
		lu, pu := lir.Union, pir.Union
		if len(lu.Branches) != len(pu.Branches) {
			fail("union", fmt.Sprintf("statement has %d branches, plan has %d", len(lu.Branches), len(pu.Branches)))
			return cert, fs
		}
		for i := range lu.Branches {
			fs = append(fs, tagSQL(sh.SQL, compareSelIR(fmt.Sprintf("branch[%d]", i), lu.Branches[i], pu.Branches[i], cert))...)
		}
		if !equalInts(lu.OrderPos, pu.OrderPos) || !equalBools(lu.OrderDesc, pu.OrderDesc) {
			fail("order", fmt.Sprintf("union order (%v desc %v), plan has (%v desc %v)", lu.OrderPos, lu.OrderDesc, pu.OrderPos, pu.OrderDesc))
		} else {
			cert.step("order union: keys resolved to positions %v", lu.OrderPos)
		}
	default:
		fail("shape", "statement and plan disagree on SELECT vs UNION")
		return cert, fs
	}

	if len(fs) == 0 {
		lh, ph := lir.Hash(), pir.Hash()
		if lh != ph {
			// Unreachable if the field comparisons are complete; kept
			// as the final independent obligation.
			fail("normal-form", fmt.Sprintf("logical normal form %s != physical %s", lh, ph))
		} else {
			cert.NormalHash = lh
			cert.step("normal-form: both sides hash to %s", lh)
		}
	}
	return cert, fs
}

// compareSelIR compares the two sides' normal forms field by field,
// reporting the first counterexample per field.
func compareSelIR(loc string, l, p *SelIR, cert *Certificate) []Finding {
	var fs []Finding
	fail := func(rule, detail string) {
		fs = append(fs, Finding{Rule: rule, Detail: loc + ": " + detail})
	}
	if l.Distinct != p.Distinct {
		fail("distinct", fmt.Sprintf("statement distinct=%v, plan distinct=%v", l.Distinct, p.Distinct))
	}
	if l.CountStar != p.CountStar {
		fail("projection", fmt.Sprintf("statement count(*)=%v, plan count(*)=%v", l.CountStar, p.CountStar))
	}
	if d := firstListDiff(l.Cols, p.Cols); d != "" {
		fail("projection", "projected columns differ: "+d)
	}
	if d := firstListDiff(l.ColNames, p.ColNames); d != "" {
		fail("projection", "column names differ: "+d)
	}
	if d := firstListDiff(l.Tables, p.Tables); d != "" {
		fail("tables", "table bindings differ: "+d)
	}
	fs = append(fs, comparePreds(loc, l, p, cert)...)
	if d := firstListDiff(l.Order, p.Order); d != "" {
		fail("order", "ordering keys differ: "+d)
	}
	if len(fs) == 0 {
		cert.step("normal-form %s: distinct/projection/tables/order match (%d conjuncts)", loc, len(l.Preds))
	}
	return fs
}

// comparePreds compares the WHERE conjunct multisets. Conjuncts whose
// canonical texts disagree get one more chance: a pair of
// REGEXP_LIKE calls over the same subject whose pattern texts differ
// is accepted when pathre proves the two patterns denote the same
// language (the translator may derive syntactically different,
// equivalent regexes).
func comparePreds(loc string, l, p *SelIR, cert *Certificate) []Finding {
	onlyL, onlyP := multisetDiff(l, p)
	matched := 0
	for i := 0; i < len(onlyL); {
		paired := false
		for j := 0; j < len(onlyP); j++ {
			ok, err := regexpEquivalent(onlyL[i].expr, onlyP[j].expr)
			if err == nil && ok {
				onlyL = append(onlyL[:i], onlyL[i+1:]...)
				onlyP = append(onlyP[:j], onlyP[j+1:]...)
				paired, matched = true, matched+1
				break
			}
		}
		if !paired {
			i++
		}
	}
	var fs []Finding
	for _, e := range onlyL {
		fs = append(fs, Finding{Rule: "predicate-missing", Detail: fmt.Sprintf("%s: statement conjunct %q has no counterpart in the plan", loc, e.text)})
	}
	for _, e := range onlyP {
		fs = append(fs, Finding{Rule: "predicate-extra", Detail: fmt.Sprintf("%s: plan evaluates conjunct %q absent from the statement", loc, e.text)})
	}
	if len(fs) == 0 && matched > 0 {
		cert.step("predicates %s: %d conjuncts matched via regex language equivalence", loc, matched)
	}
	return fs
}

type predRef struct {
	text string
	expr sqlast.Expr
}

// multisetDiff returns the conjuncts unique to each side (both Preds
// slices are sorted).
func multisetDiff(l, p *SelIR) (onlyL, onlyP []predRef) {
	i, j := 0, 0
	for i < len(l.Preds) && j < len(p.Preds) {
		switch {
		case l.Preds[i] == p.Preds[j]:
			i++
			j++
		case l.Preds[i] < p.Preds[j]:
			onlyL = append(onlyL, predRef{l.Preds[i], l.predExprs[i]})
			i++
		default:
			onlyP = append(onlyP, predRef{p.Preds[j], p.predExprs[j]})
			j++
		}
	}
	for ; i < len(l.Preds); i++ {
		onlyL = append(onlyL, predRef{l.Preds[i], l.predExprs[i]})
	}
	for ; j < len(p.Preds); j++ {
		onlyP = append(onlyP, predRef{p.Preds[j], p.predExprs[j]})
	}
	return onlyL, onlyP
}

// regexpEquivalent reports whether two conjuncts are REGEXP_LIKE
// calls on the same subject with provably equivalent patterns.
func regexpEquivalent(a, b sqlast.Expr) (bool, error) {
	fa, okA := a.(*sqlast.Func)
	fb, okB := b.(*sqlast.Func)
	if !okA || !okB || fa.Name != "REGEXP_LIKE" || fb.Name != "REGEXP_LIKE" {
		return false, nil
	}
	if len(fa.Args) != 2 || len(fb.Args) != 2 || fa.Args[0].String() != fb.Args[0].String() {
		return false, nil
	}
	pa, okA := fa.Args[1].(*sqlast.StrLit)
	pb, okB := fb.Args[1].(*sqlast.StrLit)
	if !okA || !okB {
		return false, nil
	}
	ra, err := pathre.Compile(pa.Value)
	if err != nil {
		return false, err
	}
	rb, err := pathre.Compile(pb.Value)
	if err != nil {
		return false, err
	}
	eq, _, err := pathre.Equivalent(ra, rb)
	return eq, err
}

// Verifier returns an engine plan verifier bound to db, for
// engine.ExecOptions.VerifyPlan: every compiled plan is
// certificate-checked before it may execute.
func Verifier(db *engine.DB) func(engine.PlanTrace) error {
	return func(tr engine.PlanTrace) error {
		_, fs := CheckShape(db, tr.Stmt, tr.Shape)
		if len(fs) > 0 {
			return fmt.Errorf("%s", fs[0].String())
		}
		return nil
	}
}

// firstListDiff renders the first position where two ordered lists
// disagree ("" when equal).
func firstListDiff(a, b []string) string {
	for i := 0; i < len(a) || i < len(b); i++ {
		av, bv := "(none)", "(none)"
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		if av != bv {
			return fmt.Sprintf("position %d: statement has %s, plan has %s", i, av, bv)
		}
	}
	return ""
}

func tagSQL(sql string, fs []Finding) []Finding {
	for i := range fs {
		if fs[i].SQL == "" {
			fs[i].SQL = sql
		}
	}
	return fs
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
