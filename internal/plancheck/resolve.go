package plancheck

import (
	"cmp"
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/pathre"
	"repro/internal/sqlast"
)

// The resolution obligation. The planner may resolve a FROM alias P at
// plan time (engine/resolve.go): P's join 'X.c = P.k' and P's own
// conjuncts become the test 'X.c ∈ K' on the fact alias X, a conjunct
// over two such aliases becomes a test of the two fact columns against
// a set of key pairs, and a P nothing else mentions is not in the
// physical plan at all. The shape carries each resolution as evidence
// (SelectShape.Resolved / Pairs) and the checker trusts none of it:
//
//   - the physical IR adds an eliminated alias, its join and its
//     conjuncts — and every replaced pair conjunct — back in, so the
//     normal-form comparison still sees the statement's multiset;
//   - every key set and pair set is re-derived here, by this package's
//     own evaluator with pathre's reference matcher, over the rows of
//     the table as it stands;
//   - the key column is re-checked unique over those rows (a second
//     row per key would make the join multiply what the set test
//     cannot);
//   - an eliminated alias must be mentioned nowhere in the plan, and
//     its join must survive as a retained key test or pair test;
//   - a kept alias's join and conjuncts must be retained filters of
//     the plan, so the implied test follows from conjuncts that run.

const ruleResolution = "resolution"

// setMarker decodes a top-level IN_KEY_SET / IN_PAIR_SET filter:
// the marked column texts and the index argument.
func setMarker(e sqlast.Expr) (name string, cols []string, idx int, ok bool) {
	f, isFunc := e.(*sqlast.Func)
	if !isFunc || (f.Name != engine.MarkerKeySet && f.Name != engine.MarkerPairSet) {
		return "", nil, 0, false
	}
	want := 2
	if f.Name == engine.MarkerPairSet {
		want = 3
	}
	if len(f.Args) != want {
		return f.Name, nil, -1, true
	}
	k, isInt := f.Args[want-1].(*sqlast.IntLit)
	if !isInt {
		return f.Name, nil, -1, true
	}
	for _, a := range f.Args[:want-1] {
		cols = append(cols, a.String())
	}
	return f.Name, cols, int(k.Value), true
}

// checkResolutions discharges the resolution obligation for one select
// shape (subplans are visited by checkShapeSelect's own recursion).
func checkResolutions(db *engine.DB, sh *engine.SelectShape, loc string, cert *Certificate) []Finding {
	var fs []Finding
	fail := func(format string, args ...any) {
		fs = append(fs, Finding{Rule: ruleResolution, Detail: loc + ": " + fmt.Sprintf(format, args...)})
	}

	// The retained filters, by normalized text, and the retained set
	// tests, by the resolution they refer to.
	retained := map[string]bool{}
	keyTests := make([]int, len(sh.Resolved))
	pairTests := make([]int, len(sh.Pairs))
	stepOf := map[string]*engine.StepShape{}
	for si := range sh.Steps {
		s := &sh.Steps[si]
		stepOf[s.Alias] = s
		for _, f := range s.Filters {
			name, cols, idx, ok := setMarker(f.Expr)
			if !ok {
				retained[normalize(f.Expr).String()] = true
				continue
			}
			switch {
			case name == engine.MarkerKeySet && idx >= 0 && idx < len(sh.Resolved):
				r := sh.Resolved[idx]
				if want := sqlast.C(r.FactAlias, r.FactCol).String(); cols[0] != want {
					fail("key test %d of step %s reads %s, its resolution joins %s", idx, s.Alias, cols[0], want)
				}
				keyTests[idx]++
			case name == engine.MarkerPairSet && idx >= 0 && idx < len(sh.Pairs) && pairInRange(sh, idx):
				pr := sh.Pairs[idx]
				a, b := sh.Resolved[pr.A], sh.Resolved[pr.B]
				wa, wb := sqlast.C(a.FactAlias, a.FactCol).String(), sqlast.C(b.FactAlias, b.FactCol).String()
				if cols[0] != wa || cols[1] != wb {
					fail("pair test %d of step %s reads (%s, %s), its resolutions join (%s, %s)", idx, s.Alias, cols[0], cols[1], wa, wb)
				}
				pairTests[idx]++
			default:
				fail("step %s carries a malformed set test %s", s.Alias, f.Text())
			}
		}
	}
	for _, f := range sh.PreFilters {
		retained[normalize(f.Expr).String()] = true
	}

	ev := &evaluator{patterns: map[string]*pathre.Regexp{}}
	derived := make([]*derivedKeys, len(sh.Resolved))
	for i, r := range sh.Resolved {
		d, why := deriveKeys(db, ev, r)
		if why != "" {
			fail("alias %s: %s", r.Alias, why)
			continue
		}
		derived[i] = d
		if why := diffKeys(r.Keys, d); why != "" {
			fail("alias %s: key set differs from the one its conjuncts select: %s", r.Alias, why)
			continue
		}
		fact := stepOf[r.FactAlias]
		if fact == nil {
			fail("alias %s: fact alias %s is not a step of the plan", r.Alias, r.FactAlias)
			continue
		}
		if ft := db.Table(fact.Table); ft == nil || ft.ColIndex(r.FactCol) < 0 || ft.Cols[ft.ColIndex(r.FactCol)].Type != engine.TInt {
			fail("alias %s: fact column %s.%s is not an INT column of %s", r.Alias, r.FactAlias, r.FactCol, fact.Table)
			continue
		}
		if want, got := normalize(&sqlast.Binary{Op: sqlast.OpEq, L: sqlast.C(r.FactAlias, r.FactCol), R: sqlast.C(r.Alias, r.Key)}).String(),
			normalize(r.Join.Expr).String(); got != want {
			fail("alias %s: join evidence %q is not the equality %q", r.Alias, got, want)
			continue
		}
		if keyTests[i] > 1 {
			fail("alias %s: %d key tests retained for one resolution", r.Alias, keyTests[i])
		}
		if r.Eliminated {
			if why := eliminationSound(sh, i, keyTests, pairTests); why != "" {
				fail("alias %s eliminated: %s", r.Alias, why)
				continue
			}
			cert.step("resolution %s: %s eliminated — %d of %d keys re-derived from %d conjunct(s), key %s unique, no other reference",
				loc, r.Alias, len(r.Keys), d.rows, len(r.Conds), r.Key)
			continue
		}
		if stepOf[r.Alias] == nil {
			fail("alias %s is neither eliminated nor a step of the plan", r.Alias)
			continue
		}
		missing := ""
		for _, c := range append([]engine.ExprShape{r.Join}, r.Conds...) {
			if t := normalize(c.Expr).String(); !retained[t] {
				missing = t
				break
			}
		}
		if missing != "" {
			fail("alias %s kept: its key test rests on %q, which is not a retained filter of the plan", r.Alias, missing)
			continue
		}
		cert.step("resolution %s: %s kept (%s) — %d keys re-derived, implied by retained filters", loc, r.Alias, r.KeptBy, len(r.Keys))
	}

	for j, pr := range sh.Pairs {
		if !pairInRange(sh, j) {
			fail("pair %d refers to resolutions %d and %d of %d", j, pr.A, pr.B, len(sh.Resolved))
			continue
		}
		da, db2 := derived[pr.A], derived[pr.B]
		if da == nil || db2 == nil {
			continue // already reported
		}
		a, b := sh.Resolved[pr.A], sh.Resolved[pr.B]
		for _, ref := range pr.Cond.Refs {
			if ref != a.Alias && ref != b.Alias {
				fail("pair %d: conjunct %s reads %s, outside its two aliases", j, pr.Cond.Text(), ref)
			}
		}
		want, why := derivePairs(ev, a.Alias, da, b.Alias, db2, pr.Cond.Expr)
		if why != "" {
			fail("pair %d over %s, %s: %s", j, a.Alias, b.Alias, why)
			continue
		}
		if why := diffPairs(pr.Pairs, want); why != "" {
			fail("pair %d over %s, %s: pair set differs from the one %s selects: %s", j, a.Alias, b.Alias, pr.Cond.Text(), why)
			continue
		}
		if pairTests[j] != 1 {
			fail("pair %d over %s, %s: conjunct %s was replaced but %d pair tests are retained", j, a.Alias, b.Alias, pr.Cond.Text(), pairTests[j])
			continue
		}
		cert.step("resolution %s: pair (%s, %s) — %d pairs re-derived over %d×%d keys", loc, a.Alias, b.Alias, len(pr.Pairs), len(da.keys), len(db2.keys))
	}
	return fs
}

func pairInRange(sh *engine.SelectShape, j int) bool {
	pr := sh.Pairs[j]
	return pr.A >= 0 && pr.A < len(sh.Resolved) && pr.B >= 0 && pr.B < len(sh.Resolved)
}

// eliminationSound checks what only an eliminated alias owes: no
// expression of the plan mentions it, and its join still filters the
// fact alias — through its own key test or, for an alias without
// conjuncts of its own, through a pair test.
func eliminationSound(sh *engine.SelectShape, i int, keyTests, pairTests []int) string {
	r := sh.Resolved[i]
	for _, s := range sh.Steps {
		if s.Alias == r.Alias {
			return "it is still a step of the plan"
		}
	}
	mentions := func(what string, es engine.ExprShape) string {
		for _, ref := range es.Refs {
			if ref == r.Alias {
				return fmt.Sprintf("%s %s still references it", what, es.Text())
			}
		}
		return ""
	}
	for _, f := range sh.PreFilters {
		if why := mentions("prefilter", f); why != "" {
			return why
		}
	}
	for _, s := range sh.Steps {
		for _, es := range accessExprs(s.Access) {
			if why := mentions("access key of step "+s.Alias, es); why != "" {
				return why
			}
		}
		for _, f := range s.Filters {
			if why := mentions("filter of step "+s.Alias, f); why != "" {
				return why
			}
		}
	}
	for _, c := range sh.Cols {
		if why := mentions("projected column", c); why != "" {
			return why
		}
	}
	for _, o := range sh.OrderBy {
		if why := mentions("ORDER BY key", o.Key); why != "" {
			return why
		}
	}
	for k, sp := range sh.Subplans {
		for _, ref := range sp.Select.FreeRefs {
			if ref == r.Alias {
				return fmt.Sprintf("subplan[%d] still references it", k)
			}
		}
	}
	if keyTests[i] == 1 {
		return ""
	}
	if len(r.Conds) > 0 {
		return "its key test is not retained, so its join and conjuncts filter nothing"
	}
	for j, pr := range sh.Pairs {
		if (pr.A == i || pr.B == i) && pairTests[j] == 1 {
			return ""
		}
	}
	return "neither a key test nor a pair test is retained, so its join filters nothing"
}

// derivedKeys is the checker's own resolution of one alias.
type derivedKeys struct {
	t     *engine.Table
	rows  int
	keys  []int64 // ascending
	rowOf map[int64][]engine.Value
}

// deriveKeys re-checks the key column's uniqueness over the table's
// rows and re-derives the keys of the rows that satisfy the conjuncts.
func deriveKeys(db *engine.DB, ev *evaluator, r engine.ResolvedShape) (*derivedKeys, string) {
	t := db.Table(r.Table)
	if t == nil {
		return nil, fmt.Sprintf("table %s does not exist", r.Table)
	}
	kp := t.ColIndex(r.Key)
	if kp < 0 || t.Cols[kp].Type != engine.TInt {
		return nil, fmt.Sprintf("key %s is not an INT column of %s", r.Key, r.Table)
	}
	for _, c := range r.Conds {
		for _, ref := range c.Refs {
			if ref != r.Alias {
				return nil, fmt.Sprintf("conjunct %s reads %s, not only the alias itself", c.Text(), ref)
			}
		}
	}
	rows := t.Rows()
	d := &derivedKeys{t: t, rows: len(rows), rowOf: map[int64][]engine.Value{}}
	seen := make(map[int64]int, len(rows))
	bind := map[string]binding{}
	for id, row := range rows {
		kv := row[kp]
		if kv.IsNull() {
			continue // joins nothing
		}
		if prev, dup := seen[kv.I]; dup {
			return nil, fmt.Sprintf("key %s is not unique: rows %d and %d both hold %d", r.Key, prev, id, kv.I)
		}
		seen[kv.I] = id
		bind[r.Alias] = binding{t: t, row: row}
		pass := true
		for _, c := range r.Conds {
			v, err := ev.eval(c.Expr, bind)
			if err != nil {
				return nil, fmt.Sprintf("conjunct %s: %v", c.Text(), err)
			}
			if !v.truth() {
				pass = false
				break
			}
		}
		if pass {
			d.keys = append(d.keys, kv.I)
			d.rowOf[kv.I] = row
		}
	}
	sort.Slice(d.keys, func(i, j int) bool { return d.keys[i] < d.keys[j] })
	return d, ""
}

// diffKeys names the first key on which a claimed (ascending) key set
// and the derived one disagree, with the row that decides it.
func diffKeys(claimed []int64, d *derivedKeys) string {
	i, j := 0, 0
	for i < len(claimed) || j < len(d.keys) {
		switch {
		case j == len(d.keys) || (i < len(claimed) && claimed[i] < d.keys[j]):
			return fmt.Sprintf("key %d is claimed, but no row with that key satisfies the conjuncts", claimed[i])
		case i == len(claimed) || d.keys[j] < claimed[i]:
			return fmt.Sprintf("key %d is missing, but its row %v satisfies the conjuncts", d.keys[j], d.rowOf[d.keys[j]])
		}
		i++
		j++
	}
	return ""
}

// derivePairs re-derives the pair set of cond over the two derived key
// sets, ascending.
func derivePairs(ev *evaluator, aliasA string, a *derivedKeys, aliasB string, b *derivedKeys, cond sqlast.Expr) ([][2]int64, string) {
	var out [][2]int64
	bind := map[string]binding{}
	for _, ka := range a.keys {
		bind[aliasA] = binding{t: a.t, row: a.rowOf[ka]}
		for _, kb := range b.keys {
			bind[aliasB] = binding{t: b.t, row: b.rowOf[kb]}
			v, err := ev.eval(cond, bind)
			if err != nil {
				return nil, fmt.Sprintf("conjunct %s: %v", cond, err)
			}
			if v.truth() {
				out = append(out, [2]int64{ka, kb})
			}
		}
	}
	return out, ""
}

func diffPairs(claimed, want [][2]int64) string {
	less := func(x, y [2]int64) bool { return x[0] < y[0] || (x[0] == y[0] && x[1] < y[1]) }
	i, j := 0, 0
	for i < len(claimed) || j < len(want) {
		switch {
		case j == len(want) || (i < len(claimed) && less(claimed[i], want[j])):
			return fmt.Sprintf("pair %v is claimed, but its two rows do not satisfy the conjunct", claimed[i])
		case i == len(claimed) || less(want[j], claimed[i]):
			return fmt.Sprintf("pair %v is missing, but its two rows satisfy the conjunct", want[j])
		}
		i++
		j++
	}
	return ""
}

// The checker's evaluator: the conjunct forms a resolution can rest on
// — comparisons, AND/OR/NOT, IS NULL, integer addition, LENGTH, SUBSTR
// and REGEXP_LIKE over INT and TEXT columns of the bound rows — under
// the engine's documented semantics (a comparison with NULL is false,
// REGEXP_LIKE of NULL is false, SUBSTR is 1-based). Anything else is an
// error: a resolution the checker cannot re-derive is not accepted.

type binding struct {
	t   *engine.Table
	row []engine.Value
}

// val is NULL (kind 0), an integer, a text or a truth value.
type val struct {
	kind byte // 0, 'i', 's', 'b'
	i    int64
	s    string
}

func (v val) truth() bool { return v.kind == 'b' && v.i != 0 }

func boolVal(b bool) val {
	if b {
		return val{kind: 'b', i: 1}
	}
	return val{kind: 'b'}
}

type evaluator struct {
	patterns map[string]*pathre.Regexp
}

func (ev *evaluator) eval(e sqlast.Expr, bind map[string]binding) (val, error) {
	switch x := e.(type) {
	case *sqlast.Col:
		b, ok := bind[x.Table]
		if !ok {
			return val{}, fmt.Errorf("column %s is not of a bound alias", x)
		}
		pos := b.t.ColIndex(x.Column)
		if pos < 0 {
			return val{}, fmt.Errorf("no column %s", x)
		}
		switch v := b.row[pos]; v.Kind {
		case engine.KNull:
			return val{}, nil
		case engine.KInt:
			return val{kind: 'i', i: v.I}, nil
		case engine.KText:
			return val{kind: 's', s: v.S}, nil
		}
		return val{}, fmt.Errorf("column %s holds a value kind the checker does not evaluate", x)
	case *sqlast.IntLit:
		return val{kind: 'i', i: x.Value}, nil
	case *sqlast.StrLit:
		return val{kind: 's', s: x.Value}, nil
	case *sqlast.NullLit:
		return val{}, nil
	case *sqlast.Not:
		v, err := ev.eval(x.X, bind)
		return boolVal(!v.truth()), err
	case *sqlast.IsNull:
		v, err := ev.eval(x.X, bind)
		return boolVal((v.kind == 0) != x.Negate), err
	case *sqlast.Binary:
		return ev.binary(x, bind)
	case *sqlast.Func:
		return ev.call(x, bind)
	}
	return val{}, fmt.Errorf("expression form %T is not covered by the checker's evaluator", e)
}

func (ev *evaluator) binary(x *sqlast.Binary, bind map[string]binding) (val, error) {
	l, err := ev.eval(x.L, bind)
	if err != nil {
		return val{}, err
	}
	switch x.Op {
	case sqlast.OpAnd, sqlast.OpOr:
		if l.truth() == (x.Op == sqlast.OpOr) {
			return boolVal(l.truth()), nil
		}
		r, err := ev.eval(x.R, bind)
		return boolVal(r.truth()), err
	}
	r, err := ev.eval(x.R, bind)
	if err != nil {
		return val{}, err
	}
	switch x.Op {
	case sqlast.OpAdd:
		if l.kind == 'i' && r.kind == 'i' {
			return val{kind: 'i', i: l.i + r.i}, nil
		}
		if l.kind == 0 || r.kind == 0 {
			return val{}, nil
		}
	case sqlast.OpEq, sqlast.OpNe, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe:
		if l.kind == 0 || r.kind == 0 {
			return boolVal(false), nil
		}
		var c int
		switch {
		case l.kind == 'i' && r.kind == 'i':
			c = cmp.Compare(l.i, r.i)
		case l.kind == 's' && r.kind == 's':
			c = cmp.Compare(l.s, r.s)
		default:
			return val{}, fmt.Errorf("comparison %s mixes kinds the checker does not coerce", x)
		}
		switch x.Op {
		case sqlast.OpEq:
			return boolVal(c == 0), nil
		case sqlast.OpNe:
			return boolVal(c != 0), nil
		case sqlast.OpLt:
			return boolVal(c < 0), nil
		case sqlast.OpLe:
			return boolVal(c <= 0), nil
		case sqlast.OpGt:
			return boolVal(c > 0), nil
		}
		return boolVal(c >= 0), nil
	}
	return val{}, fmt.Errorf("operator in %s is not covered by the checker's evaluator", x)
}

func (ev *evaluator) call(f *sqlast.Func, bind map[string]binding) (val, error) {
	args := make([]val, len(f.Args))
	for i, a := range f.Args {
		v, err := ev.eval(a, bind)
		if err != nil {
			return val{}, err
		}
		args[i] = v
	}
	switch {
	case f.Name == "REGEXP_LIKE" && len(args) == 2:
		pat, ok := f.Args[1].(*sqlast.StrLit)
		if !ok {
			return val{}, fmt.Errorf("%s: pattern is not a literal", f)
		}
		if args[0].kind == 0 {
			return boolVal(false), nil
		}
		if args[0].kind != 's' {
			return val{}, fmt.Errorf("%s: subject is not text", f)
		}
		re := ev.patterns[pat.Value]
		if re == nil {
			var err error
			if re, err = pathre.Compile(pat.Value); err != nil {
				return val{}, fmt.Errorf("%s: pattern outside pathre's dialect: %v", f, err)
			}
			ev.patterns[pat.Value] = re
		}
		return boolVal(re.MatchString(args[0].s)), nil
	case f.Name == "LENGTH" && len(args) == 1:
		if args[0].kind == 0 {
			return val{}, nil
		}
		if args[0].kind != 's' {
			return val{}, fmt.Errorf("%s: argument is not text", f)
		}
		return val{kind: 'i', i: int64(len(args[0].s))}, nil
	case f.Name == "SUBSTR" && len(args) == 2:
		if args[0].kind == 0 || args[1].kind == 0 {
			return val{}, nil
		}
		if args[0].kind != 's' || args[1].kind != 'i' {
			return val{}, fmt.Errorf("%s: arguments are not (text, integer)", f)
		}
		start := args[1].i - 1
		if start < 0 {
			start = 0
		}
		if start >= int64(len(args[0].s)) {
			return val{kind: 's'}, nil
		}
		return val{kind: 's', s: args[0].s[start:]}, nil
	}
	return val{}, fmt.Errorf("function %s is not covered by the checker's evaluator", f.Name)
}
