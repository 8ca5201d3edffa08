package plancheck

import (
	"bytes"
	"fmt"

	"repro/internal/engine"
	"repro/internal/sqlast"
)

// The implied-property obligation. The lowering may leave a select's
// "distinct" and "sort" operators out of the pipeline, stop its later
// steps at a driving row's first full match, and merge a UNION's
// branches instead of sorting them — each only on a proof the shape
// carries as evidence (SelectShape.Unique / RowOrder / FirstMatchFrom,
// UnionShape.Merge). The checker trusts none of it:
//
//   - duplicate-free: the driving alias is the first step; that every
//     projected and ORDER BY expression reads only it is read off the
//     shape's own expressions; the named column is projected as such
//     and is re-checked unique over the table's rows;
//   - a first-match run is legal from step 1 when the duplicate-free
//     proof stands and there are later steps to stop, and otherwise
//     only over the trailing steps that bind aliases out of unnested
//     EXISTS (unnest.go);
//   - ordered: the key is the select's one ascending ORDER BY key (or,
//     for a branch, the column the UNION orders by), a column of the
//     driving alias; either the driving access is a range scan of an
//     index led by it, or the access yields row ids ascending — a scan,
//     one posting list, a merged key probe, a range scan of an index
//     whose leading column is itself re-checked ascending — and the
//     column is re-checked strictly ascending and NULL-free in row-id
//     order over the table's rows;
//   - a merging UNION needs that of every branch, over one column
//     type, with strictly ascending keys and one row per driving row,
//     so that duplicates can only be equal-key neighbours.
//
// Two engine invariants are taken as given: an index posting list and
// a hash bucket hold their row ids ascending, and a nested-loop
// pipeline emits the rows of one driving row before the next one's.

const ruleImplied = "implied"

// checkImplied discharges the obligation for one select. mergeKey is
// the UNION's order key over this branch's columns, nil for a plain
// select, a subplan or a branch of a UNION that does not merge.
func checkImplied(db *engine.DB, sh *engine.SelectShape, mergeKey *engine.OrderShape, loc string, cert *Certificate) []Finding {
	var fs []Finding
	fail := func(format string, args ...any) {
		fs = append(fs, Finding{Rule: ruleImplied, Detail: loc + ": " + fmt.Sprintf(format, args...)})
	}
	if want := firstMatchRun(sh); sh.FirstMatchFrom != want {
		fail("first match from step %d, but the run the shape justifies starts at step %d (0: none): with the duplicate-free proof every step after the driving one is existential, without it only a trailing run of aliases out of unnested EXISTS is",
			sh.FirstMatchFrom, want)
	}
	if u := sh.Unique; u != nil {
		if why := uniqueSound(db, sh); why != "" {
			fail("no distinct operator, but the duplicate-free proof on %s.%s fails: %s", u.Alias, u.Col, why)
		} else {
			cert.step("implied %s: duplicate-free by %s.%s — unique over the rows, all output reads %s only (first match=%v)",
				loc, u.Alias, u.Col, u.Alias, sh.FirstMatchFrom > 0)
		}
	}
	if o := sh.RowOrder; o != nil {
		key := mergeKey
		switch {
		case len(sh.OrderBy) == 1:
			key = &sh.OrderBy[0]
		case len(sh.OrderBy) > 1:
			key = nil
		}
		if why := orderSound(db, sh, key); why != "" {
			fail("no sort operator, but the order proof on %s.%s fails: %s", o.Alias, o.Col, why)
		} else {
			cert.step("implied %s: ordered by %s.%s — %s", loc, o.Alias, o.Col, orderVia(o))
		}
	}
	return fs
}

// firstMatchRun re-derives where the first-match run may start, 0 when
// nothing justifies one: at step 1 under the duplicate-free proof (one
// output row per driving row, whatever the later steps bind), else at
// the first of the trailing steps that bind existential aliases — no
// projected or ORDER BY expression reads those (the unnest obligation
// checks it), so the bindings before the run decide the output row, and
// no earlier step can refer to an alias bound after it (binding-order).
// The run leaves the driving step out: the executor unwinds to the step
// before the run.
func firstMatchRun(sh *engine.SelectShape) int {
	n := len(sh.Steps)
	if sh.Unique != nil && n > 1 {
		return 1
	}
	if !sh.Distinct || sh.CountStar {
		return 0
	}
	existential := existentialAliases(sh)
	k := n
	for k > 1 && existential[sh.Steps[k-1].Alias] {
		k--
	}
	if k == n {
		return 0
	}
	return k
}

func orderVia(o *engine.RowOrderShape) string {
	if o.Index != "" {
		return "range scan of " + o.Index
	}
	return "row ids ascending and the column ascending over the rows"
}

// drivingTable resolves the claimed alias to the table of the first
// step.
func drivingTable(db *engine.DB, sh *engine.SelectShape, alias string) (*engine.Table, string) {
	if len(sh.Steps) == 0 {
		return nil, "the select has no steps"
	}
	if sh.Steps[0].Alias != alias {
		return nil, fmt.Sprintf("%s is not the driving alias (%s is)", alias, sh.Steps[0].Alias)
	}
	t := db.Table(sh.Steps[0].Table)
	if t == nil {
		return nil, "unknown table " + sh.Steps[0].Table
	}
	return t, ""
}

func uniqueSound(db *engine.DB, sh *engine.SelectShape) string {
	u := sh.Unique
	if !sh.Distinct || sh.CountStar {
		return "the select is not a DISTINCT projection"
	}
	t, why := drivingTable(db, sh, u.Alias)
	if why != "" {
		return why
	}
	reads := func(what string, es engine.ExprShape) string {
		for _, ref := range es.Refs {
			if ref != u.Alias {
				return fmt.Sprintf("%s %s reads %s, which a later step binds many times per %s row", what, es.Text(), ref, u.Alias)
			}
		}
		return ""
	}
	projected := false
	want := sqlast.C(u.Alias, u.Col).String()
	for _, c := range sh.Cols {
		if why := reads("projected column", c); why != "" {
			return why
		}
		if _, isCol := c.Expr.(*sqlast.Col); isCol && c.Text() == want {
			projected = true
		}
	}
	for _, o := range sh.OrderBy {
		if why := reads("ORDER BY key", o.Key); why != "" {
			return why
		}
	}
	if !projected {
		return want + " is not a projected column"
	}
	pos := t.ColIndex(u.Col)
	if pos < 0 {
		return fmt.Sprintf("table %s has no column %s", t.Name, u.Col)
	}
	seen := map[string]int{}
	var buf []byte
	for c, id := t.Column(pos), 0; id < c.Len(); id++ {
		v := c.Value(id)
		buf = append(buf[:0], byte(v.Kind))
		buf = append(buf, v.String()...)
		if prev, dup := seen[string(buf)]; dup {
			return fmt.Sprintf("rows %d and %d both hold %s", prev, id, v)
		}
		seen[string(buf)] = id
	}
	return ""
}

func orderSound(db *engine.DB, sh *engine.SelectShape, key *engine.OrderShape) string {
	o := sh.RowOrder
	if key == nil {
		return "the select has no single order key for it to imply"
	}
	if key.Desc {
		return "the order key is descending"
	}
	t, why := drivingTable(db, sh, o.Alias)
	if why != "" {
		return why
	}
	if _, isCol := key.Key.Expr.(*sqlast.Col); !isCol || key.Key.Text() != sqlast.C(o.Alias, o.Col).String() {
		return fmt.Sprintf("the order key is %s", key.Key.Text())
	}
	pos := t.ColIndex(o.Col)
	if pos < 0 {
		return fmt.Sprintf("table %s has no column %s", t.Name, o.Col)
	}
	switch t.Cols[pos].Type {
	case engine.TInt, engine.TText, engine.TBytes:
	default:
		return fmt.Sprintf("column type %s has no single comparison class", t.Cols[pos].Type)
	}
	a := sh.Steps[0].Access
	if o.Index != "" {
		if a.Kind != "index-range" || a.Index != o.Index || len(a.IndexCols) == 0 || a.IndexCols[0] != o.Col {
			return fmt.Sprintf("the driving access (%s %s) is not a range scan of an index led by %s", a.Kind, a.Index, o.Col)
		}
		return ""
	}
	switch a.Kind {
	case "full-scan", "index-eq", "hash-eq", "fat-hash":
	case "key-probe":
		if !a.Merged && (a.Resolved < 0 || a.Resolved >= len(sh.Resolved) || len(sh.Resolved[a.Resolved].Keys) > 1) {
			return "the driving key probe concatenates its posting lists: row ids restart at every key"
		}
	case "index-range":
		if len(a.IndexCols) == 0 {
			return "the driving range scan names no index columns"
		}
		if why := ascendingOver(t, a.IndexCols[0]); why != "" {
			return fmt.Sprintf("the driving range scan follows %s, not the row id: %s", a.IndexCols[0], why)
		}
	default:
		return fmt.Sprintf("a %s access does not yield row ids ascending", a.Kind)
	}
	return ascendingOver(t, o.Col)
}

// ascendingOver re-checks that a column is NULL-free and strictly
// ascending in row-id order over the table's rows, comparing as the
// sort would ("" when it is).
func ascendingOver(t *engine.Table, col string) string {
	pos := t.ColIndex(col)
	if pos < 0 {
		return fmt.Sprintf("table %s has no column %s", t.Name, col)
	}
	c := t.Column(pos)
	for id := 0; id < c.Len(); id++ {
		v := c.Value(id)
		switch v.Kind {
		case engine.KInt, engine.KText, engine.KBytes:
		default:
			return fmt.Sprintf("row %d holds %s in %s", id, v, col)
		}
		if id == 0 {
			continue
		}
		p := c.Value(id - 1)
		up := p.Kind == v.Kind
		switch {
		case !up:
		case v.Kind == engine.KInt:
			up = p.I < v.I
		case v.Kind == engine.KText:
			up = p.S < v.S
		default:
			up = bytes.Compare(p.B, v.B) < 0
		}
		if !up {
			return fmt.Sprintf("row %d holds %s in %s after row %d's %s", id, v, col, id-1, p)
		}
	}
	return ""
}

// checkUnionOrder validates the union-level operators against the
// order the statement asks for: a sort exactly when there are order
// keys and no merge, and a merge only on every branch's evidence.
func checkUnionOrder(db *engine.DB, u *engine.UnionShape, cert *Certificate) []Finding {
	var fs []Finding
	fail := func(rule, format string, args ...any) {
		fs = append(fs, Finding{Rule: rule, Detail: "union: " + fmt.Sprintf(format, args...)})
	}
	if u.Sort != (len(u.OrderPos) > 0 && !u.Merge) {
		fail("pipeline", "sort operator present=%v but %d order keys and merge=%v", u.Sort, len(u.OrderPos), u.Merge)
		return fs
	}
	if !u.Merge {
		cert.step("pipeline union: sort=%v for %d order keys", u.Sort, len(u.OrderPos))
		return fs
	}
	if len(u.OrderPos) != 1 || len(u.OrderDesc) != 1 || u.OrderDesc[0] {
		fail(ruleImplied, "merge claimed for order positions %v desc %v: only one ascending key merges", u.OrderPos, u.OrderDesc)
		return fs
	}
	var typ engine.Type
	for i, br := range u.Branches {
		o := br.RowOrder
		if o == nil {
			fail(ruleImplied, "merge claimed, but branch[%d] carries no order proof", i)
			continue
		}
		if len(br.Steps) > 1 && br.Unique == nil {
			fail(ruleImplied, "merge claimed, but branch[%d] joins without a duplicate-free proof: one key may arrive many times", i)
			continue
		}
		t := db.Table(br.Steps[0].Table)
		if t == nil || t.ColIndex(o.Col) < 0 {
			continue // checkImplied reports the branch's own evidence
		}
		// A row-id proof has re-checked this already; an index-led one
		// orders but does not forbid repeats.
		if o.Index != "" {
			if why := ascendingOver(t, o.Col); why != "" {
				fail(ruleImplied, "merge claimed, but branch[%d]'s key is not strictly ascending: %s", i, why)
				continue
			}
		}
		if ct := t.Cols[t.ColIndex(o.Col)].Type; i == 0 {
			typ = ct
		} else if ct != typ {
			fail(ruleImplied, "merge claimed, but branch[%d] orders by a %s column and branch[0] by a %s one", i, ct, typ)
		}
	}
	if len(fs) == 0 {
		cert.step("implied union: %d branches merge by position %d, each ordered, strictly ascending and one row per key", len(u.Branches), u.OrderPos[0])
	}
	return fs
}

// mergeKeyOf is the order key a merging union imposes on a branch: the
// column the branch projects at the union's order position.
func mergeKeyOf(u *engine.UnionShape, br *engine.SelectShape) *engine.OrderShape {
	if !u.Merge || len(u.OrderPos) != 1 || len(u.OrderDesc) != 1 || u.OrderPos[0] < 0 || u.OrderPos[0] >= len(br.Cols) {
		return nil
	}
	return &engine.OrderShape{Key: br.Cols[u.OrderPos[0]], Desc: u.OrderDesc[0]}
}
