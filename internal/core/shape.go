package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/sqlast"
	"repro/internal/xpath"
)

// Query shapes (DESIGN.md, "Query shapes and parameters"). Two query
// texts that differ only in the value of a literal the translator never
// looks inside translate to statements that differ only in that literal,
// so the translation — and the engine plan behind it — is paid once per
// shape, not once per text. lift marks those literals as slots, the
// shape key is the text with the slot spans cut out, and a Shape holds
// the statement with a sqlast.Param in each slot's place. Translate is
// Prepare followed by Bind: one path, whose zero-slot case is
// TranslateExpr.

// Shape is the translation shared by every query text that differs
// from another only in the values of its lifted literals.
type Shape struct {
	// Translation is the parameterised translation: Stmt has a
	// sqlast.Param where a lifted literal stood, and SQL, its rendering,
	// is the engine's plan-cache key for every text of the shape.
	Translation
	text     sqlast.Split // SQL cut at the slots, for SQL and Bind
	prepared atomic.Pointer[preparedOn]
}

// preparedOn is a shape's statement prepared on one database.
type preparedOn struct {
	db *engine.DB
	p  *engine.Prepared
}

// Prepared is the shape's statement prepared on db, made on first use:
// the engine's handle on the one plan every text of the shape runs
// (engine.Prepared.RunArgs).
func (sh *Shape) Prepared(db *engine.DB) *engine.Prepared {
	if on := sh.prepared.Load(); on != nil && on.db == db {
		return on.p
	}
	on := &preparedOn{db: db, p: db.PrepareStmt(sh.Stmt)}
	sh.prepared.Store(on)
	return on.p
}

// SQL is the text of the statement args binds: byte for byte what
// Bind(args).SQL is, spliced rather than rendered.
func (sh *Shape) SQL(args []engine.Value) string {
	if len(args) == 0 {
		return sh.Translation.SQL
	}
	return sh.text.Splice(literals(args))
}

// Bind is the translation of the shape's text that holds args: a copy
// of the statement with each slot's literal back in place. What holds
// no slot is shared between the bindings, none of which may be modified.
func (sh *Shape) Bind(args []engine.Value) *Translation {
	tr := sh.Translation
	if len(args) == 0 {
		return &tr
	}
	lits := literals(args)
	tr.Stmt = sqlast.MapStatementLeaves(sh.Stmt, func(leaf sqlast.Expr) sqlast.Expr {
		if p, ok := leaf.(*sqlast.Param); ok {
			return lits[p.Slot]
		}
		return leaf
	})
	tr.SQL = sh.text.Splice(lits)
	return &tr
}

// literals are the SQL literals of slot values — for each, the node
// constExpr makes of the XPath literal the value was lifted from.
func literals(args []engine.Value) []sqlast.Expr {
	lits := make([]sqlast.Expr, len(args))
	for i, v := range args {
		switch v.Kind {
		case engine.KInt:
			lits[i] = sqlast.Int(v.I)
		case engine.KFloat:
			lits[i] = &sqlast.FloatLit{Value: v.F}
		default:
			lits[i] = sqlast.Str(v.S)
		}
	}
	return lits
}

// slotValue is the value a lifted literal binds to its slot; its kind is
// the slot's.
func slotValue(e xpath.Expr) engine.Value {
	switch x := e.(type) {
	case *xpath.Literal:
		return engine.NewText(x.Value)
	case *xpath.Number:
		if integral(x.Value) {
			return engine.NewInt(int64(x.Value))
		}
		return engine.NewFloat(x.Value)
	}
	panic("core: not a lifted literal")
}

// slotParam is the parameter a lifted literal leaves in the statement.
func slotParam(slot int, e xpath.Expr) *sqlast.Param {
	p := &sqlast.Param{Slot: slot, Kind: sqlast.ParamText}
	switch slotValue(e).Kind {
	case engine.KInt:
		p.Kind = sqlast.ParamInt
	case engine.KFloat:
		p.Kind = sqlast.ParamFloat
	}
	return p
}

// lift appends to out, in source order, the literals of e the
// translator never looks inside: a string or number that is the direct
// operand of a comparison whose other operand is a value path, which
// translateComparison hands to valueComparison as an opaque SQL
// constant. Every other literal is read where it stands — a positional
// [3], an operand of position(), last() or count(), a side of a
// constant comparison, an operand of arithmetic — and stays in the text.
func lift(e xpath.Expr, out []xpath.Expr) []xpath.Expr {
	switch x := e.(type) {
	case *xpath.Path:
		for _, s := range x.Steps {
			for _, p := range s.Predicates {
				out = lift(p, out)
			}
		}
	case *xpath.Union:
		for _, p := range x.Paths {
			out = lift(p, out)
		}
	case *xpath.Call:
		for _, a := range x.Args {
			out = lift(a, out)
		}
	case *xpath.Binary:
		cmp := x.Op.Comparison()
		if cmp && isLiteral(x.L) && valuePathShaped(x.R) {
			out = append(out, x.L)
		} else {
			out = lift(x.L, out)
		}
		if cmp && isLiteral(x.R) && valuePathShaped(x.L) {
			out = append(out, x.R)
		} else {
			out = lift(x.R, out)
		}
	}
	return out
}

func isLiteral(e xpath.Expr) bool {
	switch e.(type) {
	case *xpath.Literal, *xpath.Number:
		return true
	}
	return false
}

// span is where a lifted literal stands in the query text.
func span(e xpath.Expr) (pos, end int) {
	switch x := e.(type) {
	case *xpath.Literal:
		return x.Pos, x.End
	case *xpath.Number:
		return x.Pos, x.End
	}
	panic("core: not a lifted literal")
}

// shapeKey appends to buf the key of query's shape — the text with each
// lifted literal's span replaced by a NUL and its slot's kind — and
// returns it with the values cut out. A NUL cannot stand outside a
// string literal of a text that parses, so where the cuts were reads
// off the key, and two texts share a key exactly when cutting their
// literals leaves the same text with the same kinds in the same places.
func shapeKey(query string, lits []xpath.Expr, buf []byte) ([]byte, []engine.Value) {
	if len(lits) == 0 {
		return append(buf, query...), nil
	}
	args := make([]engine.Value, len(lits))
	from := 0
	for i, l := range lits {
		pos, end := span(l)
		args[i] = slotValue(l)
		buf = append(buf, query[from:pos]...)
		buf = append(buf, 0, byte(args[i].Kind))
		from = end
	}
	return append(buf, query[from:]...), args
}

// shapeTable is a Translator's shapes by key, bounded like the engine's
// plan cache (and by its number): at the cap the table is dropped and
// refilled from the live working set. A translation never goes stale —
// the schema is fixed for the translator's life — so nothing else ever
// leaves it; what can go stale is the plan, which the engine's cache
// checks against the tables' state on every hit.
type shapeTable struct {
	mu sync.RWMutex
	//guardedby:mu
	m map[string]*Shape
}

func (t *shapeTable) get(key []byte) *Shape {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.m[string(key)]
}

// put publishes a shape, keeping one a racing translation published
// first.
func (t *shapeTable) put(key string, sh *Shape) *Shape {
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.m[key]; ok {
		return prev
	}
	if t.m == nil || len(t.m) >= engine.PlanCacheCap {
		t.m = make(map[string]*Shape)
	}
	t.m[key] = sh
	return sh
}

// Prepare parses a query and resolves it to its shape — translated now
// if no text of the shape was seen before — and the values this text
// binds to the shape's slots. An error is the text's own and is not
// kept.
func (t *Translator) Prepare(query string) (*Shape, []engine.Value, error) {
	e, err := xpath.Parse(query)
	if err != nil {
		return nil, nil, err
	}
	var litBuf [4]xpath.Expr
	lits := lift(e, litBuf[:0])
	var keyBuf [160]byte
	key, args := shapeKey(query, lits, keyBuf[:0])
	if sh := t.shapes.get(key); sh != nil {
		return sh, args, nil
	}
	var slots map[xpath.Expr]int
	if len(lits) > 0 {
		slots = make(map[xpath.Expr]int, len(lits))
		for i, l := range lits {
			slots[l] = i
		}
	}
	tr, err := t.translate(e, slots)
	if err != nil {
		return nil, nil, err
	}
	sh := &Shape{Translation: *tr, text: sqlast.RenderSplit(tr.Stmt)}
	return t.shapes.put(string(key), sh), args, nil
}
