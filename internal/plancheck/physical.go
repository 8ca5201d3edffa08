package plancheck

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/sqlast"
)

// The physical extractor maps a decompiled plan shape
// (engine.StmtShape) into the same canonical IR the logical extractor
// produces, and checkShapeSelect validates the certificate
// obligations the IR cannot express positionally: binding order,
// access-path justification, and pipeline legality.

// PhysicalIR extracts the canonical IR of a decompiled plan shape.
func PhysicalIR(sh *engine.StmtShape) (*StmtIR, error) {
	if sh.Select != nil {
		ir, err := physicalSelectIR(sh.Select, nil)
		if err != nil {
			return nil, err
		}
		return &StmtIR{Select: ir}, nil
	}
	if sh.Union == nil {
		return nil, fmt.Errorf("shape has neither select nor union")
	}
	u := &UnionIR{
		OrderPos:  append([]int(nil), sh.Union.OrderPos...),
		OrderDesc: append([]bool(nil), sh.Union.OrderDesc...),
	}
	for _, br := range sh.Union.Branches {
		ir, err := physicalSelectIR(br, nil)
		if err != nil {
			return nil, err
		}
		u.Branches = append(u.Branches, ir)
	}
	return &StmtIR{Union: u}, nil
}

// physicalSelectIR extracts one select's IR. Subplan fingerprints are
// computed first so marker indexes can be replaced by content
// addresses, making the comparison independent of subplan discovery
// order. outer maps the plan names of the enclosing selects' renamed
// aliases to their statement names (unnest.go); every expression is
// brought back under the statement's names before it is compared.
func physicalSelectIR(sh *engine.SelectShape, outer map[string]string) (*SelIR, error) {
	names := statementNames(sh, outer)
	fps := make([]string, len(sh.Subplans))
	for k, sp := range sh.Subplans {
		sub, err := physicalSelectIR(sp.Select, names)
		if err != nil {
			return nil, err
		}
		fps[k] = fingerprint(sp.Kind + "|" + sub.canonical())
	}
	ir := &SelIR{
		Distinct:  sh.Distinct,
		CountStar: sh.CountStar,
		ColNames:  append([]string(nil), sh.ColNames...),
	}
	for _, s := range sh.Steps {
		ir.Tables = append(ir.Tables, s.Alias+"="+s.Table)
	}
	// An alias eliminated by plan-time resolution is a table of the
	// statement all the same; the resolution obligation (resolve.go)
	// proves it may be absent from the steps.
	for _, r := range sh.Resolved {
		if r.Eliminated {
			ir.Tables = append(ir.Tables, r.Alias+"="+r.Table)
		}
	}
	sort.Strings(ir.Tables)
	expr := func(es engine.ExprShape) (sqlast.Expr, error) { return replaceMarkers(es.Expr, fps, names) }
	for _, c := range sh.Cols {
		e, err := expr(c)
		if err != nil {
			return nil, err
		}
		ir.Cols = append(ir.Cols, normalize(e).String())
	}
	// The conjuncts of the statement, wherever the plan put them: a set
	// test is none, it stands for the conjuncts of its resolution; an
	// omitted filter is one though the plan never evaluates it (the
	// estimate-provenance obligation proves each omission sound); so are
	// the join and conjuncts of an alias plan-time resolution eliminated
	// and every pair conjunct it replaced.
	var conjuncts []sqlast.Expr
	for _, es := range planConjuncts(sh) {
		e, err := expr(es)
		if err != nil {
			return nil, err
		}
		conjuncts = append(conjuncts, e)
	}
	// The groups an unnested EXISTS merged into the select go back into
	// sub-selects (unnest.go).
	if len(sh.Unnested) > 0 {
		var err error
		if conjuncts, ir.Tables, err = renest(sh, conjuncts, ir.Tables, fps, names); err != nil {
			return nil, err
		}
	}
	ir.Preds, ir.predExprs = sortPreds(conjuncts)
	for _, o := range sh.OrderBy {
		e, err := expr(o.Key)
		if err != nil {
			return nil, err
		}
		ir.Order = append(ir.Order, orderText(normalize(e).String(), o.Desc))
	}
	return ir, nil
}

// replaceMarkers substitutes each subplan marker's positional index
// with the fingerprint of the subplan it references, and brings the
// columns of a renamed alias (unnest.go) back under its statement name.
func replaceMarkers(e sqlast.Expr, fps []string, names map[string]string) (sqlast.Expr, error) {
	re := func(e sqlast.Expr) (sqlast.Expr, error) { return replaceMarkers(e, fps, names) }
	switch x := e.(type) {
	case *sqlast.Col:
		if to, ok := names[x.Table]; ok {
			return sqlast.C(to, x.Column), nil
		}
	case *sqlast.Func:
		if x.Name == engine.MarkerExists || x.Name == engine.MarkerNotExists || x.Name == engine.MarkerScalar {
			if len(x.Args) != 1 {
				return nil, fmt.Errorf("marker %s with %d args", x.Name, len(x.Args))
			}
			k, ok := x.Args[0].(*sqlast.IntLit)
			if !ok || k.Value < 0 || int(k.Value) >= len(fps) {
				return nil, fmt.Errorf("marker %s references unknown subplan %s", x.Name, x.Args[0])
			}
			return &sqlast.Func{Name: x.Name, Args: []sqlast.Expr{sqlast.Str(fps[k.Value])}}, nil
		}
		f := &sqlast.Func{Name: x.Name}
		for _, a := range x.Args {
			ra, err := re(a)
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, ra)
		}
		return f, nil
	case *sqlast.Binary:
		l, err := re(x.L)
		if err != nil {
			return nil, err
		}
		r, err := re(x.R)
		if err != nil {
			return nil, err
		}
		return &sqlast.Binary{Op: x.Op, L: l, R: r}, nil
	case *sqlast.Not:
		inner, err := re(x.X)
		if err != nil {
			return nil, err
		}
		return &sqlast.Not{X: inner}, nil
	case *sqlast.Between:
		bx, err := re(x.X)
		if err != nil {
			return nil, err
		}
		lo, err := re(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := re(x.Hi)
		if err != nil {
			return nil, err
		}
		return &sqlast.Between{X: bx, Lo: lo, Hi: hi}, nil
	case *sqlast.IsNull:
		inner, err := re(x.X)
		if err != nil {
			return nil, err
		}
		return &sqlast.IsNull{X: inner, Negate: x.Negate}, nil
	}
	return e, nil
}

// checkShapeSelect validates one select shape's certificate
// obligations, recursing into subplans. sel is the statement's select
// the shape was planned from (nil for a subplan); outer is the alias set
// of enclosing selects; mergeKey the order a merging UNION imposes on
// this branch (nil otherwise); loc labels findings. Validated obligations
// are appended to cert.Steps. db is needed for the obligations that
// cross-check evidence against the tables as they stand.
func checkShapeSelect(db *engine.DB, sh *engine.SelectShape, sel *sqlast.Select, outer map[string]bool, mergeKey *engine.OrderShape, loc string, cert *Certificate) []Finding {
	var fs []Finding
	report := func(rule, detail string) {
		fs = append(fs, Finding{Rule: rule, Detail: loc + ": " + detail})
	}

	// Join order: the binding order must be a permutation of the
	// statement's FROM list, chosen by a known method.
	fromSet := map[string]int{}
	for _, a := range sh.FromOrder {
		fromSet[a]++
	}
	bound := len(sh.Steps)
	for _, s := range sh.Steps {
		fromSet[s.Alias]--
	}
	for _, r := range sh.Resolved {
		if r.Eliminated {
			fromSet[r.Alias]--
			bound++
		}
	}
	perm := len(sh.FromOrder) == bound
	for _, n := range fromSet {
		if n != 0 {
			perm = false
		}
	}
	if !perm {
		report("join-order", fmt.Sprintf("binding order %v (with the eliminated aliases) is not a permutation of FROM %v", stepAliases(sh), sh.FromOrder))
	}
	switch sh.JoinMethod {
	case "single", "dp", "greedy":
	default:
		report("join-order", fmt.Sprintf("unknown join-order method %q", sh.JoinMethod))
	}
	if perm {
		cert.step("join-order %s: %v is a permutation of FROM (%s)", loc, stepAliases(sh), sh.JoinMethod)
	}

	// Binding-order guard: every expression may reference only
	// aliases bound before the point where it is evaluated.
	boundAt := map[string]bool{}
	for a := range outer {
		boundAt[a] = true
	}
	checkRefs := func(what string, refs []string) {
		for _, r := range refs {
			if !boundAt[r] {
				report("binding-order", fmt.Sprintf("%s references %q before it is bound", what, r))
			}
		}
	}
	for i, f := range sh.PreFilters {
		checkRefs(fmt.Sprintf("prefilter %d (%s)", i, f.Text()), f.Refs)
	}
	for _, s := range sh.Steps {
		for _, es := range accessExprs(s.Access) {
			checkRefs(fmt.Sprintf("step %s access key %s", s.Alias, es.Text()), es.Refs)
		}
		boundAt[s.Alias] = true
		for _, f := range s.Filters {
			checkRefs(fmt.Sprintf("step %s filter %s", s.Alias, f.Text()), f.Refs)
		}
	}
	cert.step("binding-order %s: all references bound in order", loc)

	// Unnested EXISTS: the side conditions of the merge re-derived
	// (unnest.go).
	fs = append(fs, checkUnnest(sh, sel, loc, cert)...)

	// Plan-time resolution: every key and pair set re-derived, every
	// eliminated alias shown to be unreferenced (resolve.go).
	fs = append(fs, checkResolutions(db, sh, loc, cert)...)

	// Access-path substitution: each non-scan access must be
	// justified by a retained predicate of the same step plus index
	// metadata.
	for _, s := range sh.Steps {
		if f := checkAccess(s); f != nil {
			fs = append(fs, Finding{Rule: f.Rule, Detail: loc + ": " + f.Detail})
		} else {
			cert.step("access %s step %s: %s justified", loc, s.Alias, s.Access.Kind)
		}
	}

	// Estimate provenance: every step's cardinality estimate must carry
	// a known source, and every omitted filter must be independently
	// re-provable from its recorded synopsis evidence.
	for _, s := range sh.Steps {
		fs = append(fs, checkEstimates(db, s, loc, cert)...)
	}

	// Implied properties: the proofs on which DISTINCT, ORDER BY or the
	// later steps' full enumeration were left out (implied.go).
	fs = append(fs, checkImplied(db, sh, mergeKey, loc, cert)...)

	// Pipeline legality: the lowered operator sequence must place
	// scans, filters, projection, DISTINCT and ORDER BY exactly where
	// the select shape dictates — the last two absent exactly when the
	// shape carries the proof that implies them.
	want := expectedPipeline(sh)
	if !equalStrings(want, sh.Pipeline) {
		report("pipeline", fmt.Sprintf("lowered pipeline %v, want %v%s", sh.Pipeline, want, firstTokenDiff(sh.Pipeline, want)))
	} else {
		cert.step("pipeline %s: %v", loc, sh.Pipeline)
	}

	// Subplans: same obligations, with this select's aliases visible.
	inner := map[string]bool{}
	for a := range outer {
		inner[a] = true
	}
	for _, s := range sh.Steps {
		inner[s.Alias] = true
	}
	for k, sp := range sh.Subplans {
		fs = append(fs, checkShapeSelect(db, sp.Select, nil, inner, nil, fmt.Sprintf("%s/subplan[%d]", loc, k), cert)...)
	}
	return fs
}

func stepAliases(sh *engine.SelectShape) []string {
	out := make([]string, len(sh.Steps))
	for i, s := range sh.Steps {
		out[i] = s.Alias
	}
	return out
}

// accessExprs lists the expressions an access path evaluates before
// the step's own row is bound.
func accessExprs(a engine.AccessShape) []engine.ExprShape {
	var out []engine.ExprShape
	out = append(out, a.Keys...)
	for _, es := range []engine.ExprShape{a.Key, a.Lo, a.Hi} {
		if es.Expr != nil {
			out = append(out, es)
		}
	}
	return out
}

// checkAccess verifies that a step's access path is justified: the
// rows it skips are exactly rows some retained predicate of the step
// rejects. Each rule searches the step's own (normalized) filters,
// because the planner derives access paths only from conjuncts that
// are attached to the same step.
func checkAccess(s engine.StepShape) *Finding {
	a := s.Access
	fail := func(detail string) *Finding {
		return &Finding{Rule: "access-path", Detail: fmt.Sprintf("step %s (%s): %s", s.Alias, a.Kind, detail)}
	}
	filters := make([]sqlast.Expr, 0, len(s.Filters))
	texts := make([]string, 0, len(s.Filters))
	for _, f := range s.Filters {
		n := normalize(f.Expr)
		filters = append(filters, n)
		texts = append(texts, n.String())
	}
	hasText := func(t string) bool {
		for _, ft := range texts {
			if ft == t {
				return true
			}
		}
		return false
	}
	col := func(name string) sqlast.Expr { return sqlast.C(s.Alias, name) }
	// hasKeyTest reports whether the step retains the key test of
	// resolution res on column c.
	hasKeyTest := func(res int, c sqlast.Expr) bool {
		for _, f := range s.Filters {
			if name, cols, idx, ok := setMarker(f.Expr); ok && name == engine.MarkerKeySet && idx == res && len(cols) == 1 && cols[0] == c.String() {
				return true
			}
		}
		return false
	}
	// scoped justifies a Dewey step that runs over a key set's rows
	// instead of the index: it leaves out exactly the rows that set's
	// retained test of the same column rejects.
	scoped := func() *Finding {
		if b := a.BuiltOver; b != nil && !hasKeyTest(b.Resolved, col(b.Col)) {
			return fail(fmt.Sprintf("no retained key test %d on %s justifies running the step over its rows", b.Resolved, col(b.Col)))
		}
		return nil
	}

	switch a.Kind {
	case "full-scan":
		return nil
	case "index-eq":
		if a.Index == "" || len(a.IndexCols) == 0 {
			return fail("no index metadata")
		}
		if len(a.Keys) == 0 || len(a.Keys) > len(a.IndexCols) {
			return fail(fmt.Sprintf("%d keys for %d index columns", len(a.Keys), len(a.IndexCols)))
		}
		if a.Col != a.IndexCols[0] {
			return fail(fmt.Sprintf("accessed column %q is not the leading index column %q", a.Col, a.IndexCols[0]))
		}
		for i, k := range a.Keys {
			want := normalize(&sqlast.Binary{Op: sqlast.OpEq, L: col(a.IndexCols[i]), R: k.Expr}).String()
			if !hasText(want) {
				return fail(fmt.Sprintf("no retained predicate %q justifies key %d", want, i))
			}
		}
		return nil
	case "hash-eq", "fat-hash":
		if a.Key.Expr == nil {
			return fail("no probe key")
		}
		want := normalize(&sqlast.Binary{Op: sqlast.OpEq, L: col(a.Col), R: a.Key.Expr}).String()
		if !hasText(want) {
			return fail(fmt.Sprintf("no retained predicate %q justifies the hash probe", want))
		}
		// A build over a key set's rows leaves out exactly the rows that
		// set's retained test of the same column rejects.
		if b := a.BuiltOver; b != nil && !hasKeyTest(b.Resolved, col(b.Col)) {
			return fail(fmt.Sprintf("no retained key test %d on %s justifies building the hash over its rows", b.Resolved, col(b.Col)))
		}
		return nil
	case "key-probe":
		// Justified by the retained key test of the same resolution on
		// the probed column: the probes read the posting lists of a
		// single-column index on it, exactly the rows whose column holds
		// one of the set's keys, and the test — whose set the resolution
		// obligation re-derives — rejects every other.
		if a.Index == "" {
			return fail(fmt.Sprintf("key probes on %s name no index", a.Col))
		}
		if len(a.IndexCols) != 1 || a.IndexCols[0] != a.Col {
			return fail(fmt.Sprintf("index %s is not a single-column index on %s", a.Index, a.Col))
		}
		if hasKeyTest(a.Resolved, col(a.Col)) {
			return nil
		}
		return fail(fmt.Sprintf("no retained key test %d on %s justifies the key probes", a.Resolved, col(a.Col)))
	case "index-prefixes":
		// Justified by a retained 'X BETWEEN t.col AND t.col || k'
		// conjunct: every row whose col is a byte-prefix of X
		// satisfies the BETWEEN's lower bound, and the enumeration
		// visits exactly the prefixes of X, so no qualifying row is
		// skipped (sound for any byte suffix k).
		if a.Index == "" || len(a.IndexCols) == 0 || a.Col != a.IndexCols[0] {
			return fail("no index metadata for prefix enumeration")
		}
		if a.Key.Expr == nil {
			return fail("no probe value")
		}
		keyText := normalize(a.Key.Expr).String()
		colText := col(a.Col).String()
		for _, f := range filters {
			b, ok := f.(*sqlast.Between)
			if !ok || b.X.String() != keyText || b.Lo.String() != colText {
				continue
			}
			hi, ok := b.Hi.(*sqlast.Binary)
			if !ok || hi.Op != sqlast.OpConcat || hi.L.String() != colText {
				continue
			}
			if _, ok := hi.R.(*sqlast.BytesLit); !ok {
				continue
			}
			return scoped()
		}
		return fail(fmt.Sprintf("no retained predicate %q BETWEEN %s AND %s || k justifies prefix enumeration", keyText, colText, colText))
	case "index-range":
		if a.Index == "" || len(a.IndexCols) == 0 || a.Col != a.IndexCols[0] {
			return fail("no index metadata for range scan")
		}
		if a.Lo.Expr == nil && a.Hi.Expr == nil {
			return fail("range access with no bounds")
		}
		ct := col(a.Col)
		// A two-sided non-strict range may be justified by a single
		// BETWEEN conjunct.
		if a.Lo.Expr != nil && a.Hi.Expr != nil && !a.LoStrict && !a.HiStrict {
			want := normalize(&sqlast.Between{X: ct, Lo: a.Lo.Expr, Hi: a.Hi.Expr}).String()
			if hasText(want) {
				return scoped()
			}
		}
		if a.Lo.Expr != nil {
			op := sqlast.OpLe
			if a.LoStrict {
				op = sqlast.OpLt
			}
			want := normalize(&sqlast.Binary{Op: op, L: a.Lo.Expr, R: ct}).String()
			if !hasText(want) {
				return fail(fmt.Sprintf("no retained predicate %q justifies the lower bound", want))
			}
		}
		if a.Hi.Expr != nil {
			op := sqlast.OpLe
			if a.HiStrict {
				op = sqlast.OpLt
			}
			want := normalize(&sqlast.Binary{Op: op, L: ct, R: a.Hi.Expr}).String()
			if !hasText(want) && !(a.HiStrict && concatHiJustified(filters, ct.String(), normalize(a.Hi.Expr).String())) {
				return fail(fmt.Sprintf("no retained predicate %q (or a col||k comparison) justifies the upper bound", want))
			}
		}
		return scoped()
	}
	return fail("unknown access kind")
}

// concatHiJustified reports whether some retained '(t.col || k) < hi'
// or '(t.col || k) <= hi' conjunct justifies a strict upper bound on
// t.col: col is a proper byte-prefix of col||k, so col < col||k <= hi
// implies col < hi.
func concatHiJustified(filters []sqlast.Expr, colText, hiText string) bool {
	for _, f := range filters {
		b, ok := f.(*sqlast.Binary)
		if !ok || (b.Op != sqlast.OpLt && b.Op != sqlast.OpLe) {
			continue
		}
		l, ok := b.L.(*sqlast.Binary)
		if !ok || l.Op != sqlast.OpConcat || l.L.String() != colText {
			continue
		}
		if b.R.String() == hiText {
			return true
		}
	}
	return false
}

// expectedPipeline derives the only legal operator sequence for a
// select shape.
func expectedPipeline(sh *engine.SelectShape) []string {
	var out []string
	if len(sh.PreFilters) > 0 {
		out = append(out, "prefilter")
	}
	for _, s := range sh.Steps {
		out = append(out, "scan "+s.Alias)
		if len(s.Filters) > 0 {
			out = append(out, "filter "+s.Alias)
		}
	}
	if sh.CountStar {
		out = append(out, "count")
	} else {
		out = append(out, "project")
	}
	if sh.Distinct && sh.Unique == nil {
		out = append(out, "distinct")
	}
	if len(sh.OrderBy) > 0 && sh.RowOrder == nil {
		out = append(out, "sort")
	}
	return out
}

func equalStrings(a, b []string) bool {
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

// firstTokenDiff renders the minimal counterexample for a pipeline
// mismatch.
func firstTokenDiff(got, want []string) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		g, w := "(end)", "(end)"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Sprintf("; first difference at operator %d: got %s, want %s", i, g, w)
		}
	}
	return ""
}
