package engine

import (
	"fmt"
	"regexp"
	"strings"
	"time"

	"repro/internal/failpoint"
	"repro/internal/pathre"
	"repro/internal/sqlast"
)

// env holds the row id bound to each alias of a statement, by the slot
// the planner gave the alias (scope.add): every FROM entry of every
// select in the statement has its own slot, so nested scopes
// (correlated subqueries) share one env without shadowing one another.
// Binding a row reads none of its cells; a compiled column (ccol) reads
// the one it needs.
type env []int64

// cexpr is a compiled expression: column references are resolved to
// positions, regex patterns precompiled, subqueries pre-planned.
type cexpr interface {
	eval(ec *execCtx, e env) (Value, error)
}

// scope resolves column references at compile time.
type scope struct {
	parent *scope
	tables map[string]*Table // effective name -> table
	slots  map[string]int    // effective name -> env slot
	order  []string
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, tables: map[string]*Table{}, slots: map[string]int{}}
}

// add binds name to t in env slot slot.
func (s *scope) add(name string, t *Table, slot int) error {
	for sc := s; sc != nil; sc = sc.parent {
		if _, dup := sc.tables[name]; dup {
			return fmt.Errorf("engine: table name %q shadows an enclosing table; alias it", name)
		}
	}
	s.tables[name] = t
	s.slots[name] = slot
	s.order = append(s.order, name)
	return nil
}

// slot returns the env slot of a name the scope chain binds.
func (s *scope) slot(name string) (int, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if slot, ok := sc.slots[name]; ok {
			return slot, true
		}
	}
	return 0, false
}

// resolve finds the table and column position for a column reference.
func (s *scope) resolve(c *sqlast.Col) (tableName string, t *Table, pos int, err error) {
	if c.Table != "" {
		for sc := s; sc != nil; sc = sc.parent {
			if t, ok := sc.tables[c.Table]; ok {
				p := t.ColIndex(c.Column)
				if p < 0 {
					return "", nil, 0, fmt.Errorf("engine: no column %q in table %q", c.Column, c.Table)
				}
				return c.Table, t, p, nil
			}
		}
		return "", nil, 0, fmt.Errorf("engine: unknown table %q", c.Table)
	}
	// Unqualified: must be unique across the innermost scope that has a
	// match; ambiguity is an error.
	for sc := s; sc != nil; sc = sc.parent {
		var foundName string
		var foundTable *Table
		foundPos := -1
		for _, name := range sc.order {
			t := sc.tables[name]
			if p := t.ColIndex(c.Column); p >= 0 {
				if foundPos >= 0 {
					return "", nil, 0, fmt.Errorf("engine: ambiguous column %q", c.Column)
				}
				foundName, foundTable, foundPos = name, t, p
			}
		}
		if foundPos >= 0 {
			return foundName, foundTable, foundPos, nil
		}
	}
	return "", nil, 0, fmt.Errorf("engine: unknown column %q", c.Column)
}

// --- compiled expression node types ---

// ccol reads column pos of the row bound to alias table: the cell of
// col, that column of the state the plan pinned, at the row id in the
// alias's env slot.
type ccol struct {
	table string
	pos   int
	slot  int
	col   *column
}

func (c *ccol) eval(ec *execCtx, e env) (Value, error) { return c.col.value(e[c.slot]), nil }

type clit struct{ v Value }

func (c *clit) eval(*execCtx, env) (Value, error) { return c.v, nil }

// cparam reads a parameter slot from the execution's arguments
// (Prepared.RunArgs): the one compiled node whose value differs between
// executions of a cached plan. runCompiledFrame has checked the
// arguments against the plan's slots before any is evaluated.
type cparam struct {
	slot int
	kind sqlast.ParamKind
}

func (c *cparam) eval(ec *execCtx, _ env) (Value, error) { return ec.args[c.slot], nil }

// paramKind is the runtime kind of the values a slot of kind k takes.
func paramKind(k sqlast.ParamKind) Kind {
	switch k {
	case sqlast.ParamInt:
		return KInt
	case sqlast.ParamFloat:
		return KFloat
	}
	return KText
}

type cbin struct {
	op   sqlast.BinOp
	l, r cexpr
}

func (c *cbin) eval(ec *execCtx, e env) (Value, error) {
	switch c.op {
	case sqlast.OpAnd:
		lv, err := c.l.eval(ec, e)
		if err != nil {
			return Null, err
		}
		if !lv.Truth() {
			return NewBool(false), nil
		}
		rv, err := c.r.eval(ec, e)
		if err != nil {
			return Null, err
		}
		return NewBool(rv.Truth()), nil
	case sqlast.OpOr:
		lv, err := c.l.eval(ec, e)
		if err != nil {
			return Null, err
		}
		if lv.Truth() {
			return NewBool(true), nil
		}
		rv, err := c.r.eval(ec, e)
		if err != nil {
			return Null, err
		}
		return NewBool(rv.Truth()), nil
	}
	lv, err := c.l.eval(ec, e)
	if err != nil {
		return Null, err
	}
	rv, err := c.r.eval(ec, e)
	if err != nil {
		return Null, err
	}
	switch c.op {
	case sqlast.OpEq, sqlast.OpNe, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe:
		cmp, ok := Compare(lv, rv)
		if !ok {
			return NewBool(false), nil
		}
		var res bool
		switch c.op {
		case sqlast.OpEq:
			res = cmp == 0
		case sqlast.OpNe:
			res = cmp != 0
		case sqlast.OpLt:
			res = cmp < 0
		case sqlast.OpLe:
			res = cmp <= 0
		case sqlast.OpGt:
			res = cmp > 0
		case sqlast.OpGe:
			res = cmp >= 0
		}
		return NewBool(res), nil
	case sqlast.OpConcat:
		return Concat(lv, rv)
	case sqlast.OpAdd:
		return Arith('+', lv, rv)
	case sqlast.OpSub:
		return Arith('-', lv, rv)
	case sqlast.OpMul:
		return Arith('*', lv, rv)
	case sqlast.OpDiv:
		return Arith('/', lv, rv)
	case sqlast.OpMod:
		return Arith('%', lv, rv)
	}
	return Null, fmt.Errorf("engine: unknown operator %v", c.op)
}

type cnot struct{ x cexpr }

func (c *cnot) eval(ec *execCtx, e env) (Value, error) {
	v, err := c.x.eval(ec, e)
	if err != nil {
		return Null, err
	}
	return NewBool(!v.Truth()), nil
}

type cbetween struct{ x, lo, hi cexpr }

func (c *cbetween) eval(ec *execCtx, e env) (Value, error) {
	xv, err := c.x.eval(ec, e)
	if err != nil {
		return Null, err
	}
	lov, err := c.lo.eval(ec, e)
	if err != nil {
		return Null, err
	}
	cmpLo, ok := Compare(xv, lov)
	if !ok || cmpLo < 0 {
		return NewBool(false), nil
	}
	hi, err := evalBound(ec, e, c.hi)
	if err != nil {
		return Null, err
	}
	cmpHi, ok := hi.compare(xv)
	return NewBool(ok && cmpHi <= 0), nil
}

// bound is a value other values are compared with. The Dewey upper
// bound x || X'FF' stays the two byte strings it joins (split): a
// comparison reads them in place, where building the value would
// allocate once for every row the bound is compared with. A byte
// string x compares with a byte-string bound, split or not, as
// compareConcat(x, b.v.B, b.tail).
type bound struct {
	v     Value  // the value; when split, the head of head || tail
	tail  []byte // when split, what follows the head
	split bool
}

// evalBound evaluates x as a bound: a concatenation of two byte strings
// split, anything else as eval gives it. A concatenation's operands are
// evaluated, and its errors raised, as Concat would.
func evalBound(ec *execCtx, e env, x cexpr) (bound, error) {
	c, ok := x.(*cbin)
	if !ok || c.op != sqlast.OpConcat {
		v, err := x.eval(ec, e)
		return bound{v: v}, err
	}
	l, err := c.l.eval(ec, e)
	if err != nil {
		return bound{}, err
	}
	r, err := c.r.eval(ec, e)
	if err != nil {
		return bound{}, err
	}
	if l.Kind == KBytes && r.Kind == KBytes {
		return bound{v: l, tail: r.B, split: true}, nil
	}
	v, err := Concat(l, r)
	return bound{v: v}, err
}

// compare is Compare(x, the bound's value).
func (b bound) compare(x Value) (int, bool) {
	if !b.split {
		return Compare(x, b.v)
	}
	if x.Kind != KBytes {
		return 0, false // bytes compare only with bytes; NULL with nothing
	}
	return compareConcat(x.B, b.v.B, b.tail), true
}

type cisnull struct {
	x      cexpr
	negate bool
}

func (c *cisnull) eval(ec *execCtx, e env) (Value, error) {
	v, err := c.x.eval(ec, e)
	if err != nil {
		return Null, err
	}
	return NewBool(v.IsNull() != c.negate), nil
}

type cfunc struct {
	name string
	args []cexpr
	re   *matcher // for REGEXP_LIKE with constant pattern
}

func (c *cfunc) eval(ec *execCtx, e env) (Value, error) {
	switch c.name {
	case "REGEXP_LIKE":
		sv, err := c.args[0].eval(ec, e)
		if err != nil {
			return Null, err
		}
		if sv.IsNull() {
			return NewBool(false), nil
		}
		m := c.re
		if m == nil {
			pv, err := c.args[1].eval(ec, e)
			if err != nil {
				return Null, err
			}
			m, err = ec.pattern(pv.String())
			if err != nil {
				return Null, err
			}
		}
		return NewBool(m.match(sv.String())), nil
	case "LENGTH":
		v, err := c.args[0].eval(ec, e)
		if err != nil || v.IsNull() {
			return Null, err
		}
		if v.Kind == KBytes {
			return NewInt(int64(len(v.B))), nil
		}
		return NewInt(int64(len(v.String()))), nil
	case "SUBSTR":
		v, err := c.args[0].eval(ec, e)
		if err != nil || v.IsNull() {
			return Null, err
		}
		pv, err := c.args[1].eval(ec, e)
		if err != nil || pv.IsNull() {
			return Null, err
		}
		if pv.Kind != KInt {
			return Null, fmt.Errorf("engine: SUBSTR position must be an integer")
		}
		s := v.String()
		start := int(pv.I) - 1 // SQL SUBSTR is 1-based
		if start < 0 {
			start = 0
		}
		if start >= len(s) {
			return NewText(""), nil
		}
		return NewText(s[start:]), nil
	case "LOWER", "UPPER":
		v, err := c.args[0].eval(ec, e)
		if err != nil || v.IsNull() {
			return Null, err
		}
		if c.name == "LOWER" {
			return NewText(strings.ToLower(v.String())), nil
		}
		return NewText(strings.ToUpper(v.String())), nil
	case "ABS":
		v, err := c.args[0].eval(ec, e)
		if err != nil || v.IsNull() {
			return Null, err
		}
		if v.Kind == KInt {
			if v.I < 0 {
				return NewInt(-v.I), nil
			}
			return v, nil
		}
		f, ok := v.numeric()
		if !ok {
			return Null, fmt.Errorf("engine: ABS of non-number")
		}
		if f < 0 {
			f = -f
		}
		return NewFloat(f), nil
	}
	return Null, fmt.Errorf("engine: unknown function %q", c.name)
}

type cexists struct {
	plan   *selectPlan
	negate bool
}

func (c *cexists) eval(ec *execCtx, e env) (Value, error) {
	st := ec.op(c.plan.phys.boundary)
	st.open()
	found := false
	emit := func([]Value) (bool, error) {
		found = true
		return false, nil // stop at first row
	}
	var err error
	if ec.timing {
		t0 := time.Now()
		err = ec.runPlanFirst(c.plan, e, emit)
		st.addTime(time.Since(t0))
	} else {
		err = ec.runPlanFirst(c.plan, e, emit)
	}
	if err != nil {
		return Null, err
	}
	if found {
		st.rowOut()
	}
	return NewBool(found != c.negate), nil
}

type csubq struct {
	plan *selectPlan
}

func (c *csubq) eval(ec *execCtx, e env) (Value, error) {
	st := ec.op(c.plan.phys.boundary)
	st.open()
	// COUNT(*) subqueries count; other scalar subqueries return the
	// first row's single value (NULL when empty).
	if c.plan.countStar {
		n := int64(0)
		emit := func([]Value) (bool, error) {
			n++
			return true, nil
		}
		var err error
		if ec.timing {
			t0 := time.Now()
			err = ec.runPlan(c.plan, e, emit)
			st.addTime(time.Since(t0))
		} else {
			err = ec.runPlan(c.plan, e, emit)
		}
		if err != nil {
			return Null, err
		}
		st.rowOut()
		return NewInt(n), nil
	}
	out := Null
	got := false
	emit := func(row []Value) (bool, error) {
		out = row[0]
		got = true
		return false, nil
	}
	var err error
	if ec.timing {
		t0 := time.Now()
		err = ec.runPlanFirst(c.plan, e, emit)
		st.addTime(time.Since(t0))
	} else {
		err = ec.runPlanFirst(c.plan, e, emit)
	}
	if err != nil {
		return Null, err
	}
	if got {
		st.rowOut()
	}
	return out, nil
}

// ckeyin tests a fact column against a plan-time key set
// (resolve.go): true iff the column holds one of the keys. NULL is in
// no set, as it equals no key.
type ckeyin struct {
	col ccol
	res *resolution
}

func (c *ckeyin) eval(ec *execCtx, e env) (Value, error) {
	k, ok := c.col.col.int(e[c.col.slot])
	if ok {
		_, ok = c.res.keys.has[k]
	}
	return NewBool(ok), nil
}

// cpairin tests two fact columns against a plan-time pair set.
type cpairin struct {
	a, b ccol
	res  *pairResolution
}

func (c *cpairin) eval(ec *execCtx, e env) (Value, error) {
	a, aok := c.a.col.int(e[c.a.slot])
	b, bok := c.b.col.int(e[c.b.slot])
	ok := aok && bok
	if ok {
		_, ok = c.res.pairs.has[[2]int64{a, b}]
	}
	return NewBool(ok), nil
}

// matcher wraps pathre with a stdlib regexp fallback for patterns
// outside the ERE subset pathre supports. For pathre patterns without
// a literal fast path, dfa holds the dense byte-class DFA compiled at
// the same (sole) compilation site — the NFA simulation allocates two
// state sets per call, the DFA walk allocates nothing.
type matcher struct {
	fast *pathre.Regexp
	dfa  *pathre.DFA
	slow *regexp.Regexp
}

func (m *matcher) match(s string) bool {
	if m.dfa != nil {
		return m.dfa.MatchString(s)
	}
	if m.fast != nil {
		return m.fast.MatchString(s)
	}
	return m.slow.MatchString(s)
}

// patternCache shares compiled matchers across queries and goroutines
// (a memo: published once, a compile race keeps the first matcher). It
// is bounded because adversarial or generated workloads can present an
// unbounded stream of distinct patterns.
const patternCacheCap = 1024

var patternCache = memo[string, *matcher]{cap: patternCacheCap}

// PatternCacheSize reports the number of cached REGEXP_LIKE
// matchers, for metrics and tests. It never exceeds patternCacheCap.
func PatternCacheSize() int { return patternCache.len() }

// compilePattern is the engine's only sanctioned pattern-compilation
// site (enforced by the regexploop analyzer): every per-row matcher
// must come from here so row loops hit the cache instead of
// recompiling.
func compilePattern(pat string) (*matcher, error) {
	if m, ok := patternCache.get(pat); ok {
		return m, nil
	}
	if err := failpoint.Inject("engine/pattern-compile"); err != nil {
		return nil, err
	}
	var m *matcher
	if fast, err := pathre.Compile(pat); err == nil {
		m = &matcher{fast: fast}
		if !fast.HasLiteralPath() {
			// Patterns that would otherwise run the NFA simulation get a
			// dense DFA; transcheck proves DFA/NFA agreement (VerifyDFA)
			// for every corpus pattern, and FuzzPathDFA fuzzes it. A
			// pattern exceeding the DFA state bound just keeps the NFA.
			if d, derr := pathre.CompileDFA(fast); derr == nil {
				m.dfa = d
			}
		}
	} else {
		slow, err2 := regexp.Compile(pat)
		if err2 != nil {
			return nil, fmt.Errorf("engine: REGEXP_LIKE pattern %q: %v", pat, err2)
		}
		m = &matcher{slow: slow}
	}
	return patternCache.put(pat, m), nil
}
