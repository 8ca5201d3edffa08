// Seeded violations for the sqltaint analyzer: strings reaching
// query execution that were not derived from sqlast rendering.
// Regression note: cmd/xsql's \explain REPL path feeds the user's
// typed SQL to sqlast.Parse — the one legitimate raw source — and
// carries an //xvet:ignore sqltaint directive; everything else must
// build a sqlast tree and Render it.
package a

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/sqlast"
)

// Non-constant concatenation splices fragments: tainted even though
// both halves look harmless.
func concat(table string) error {
	q := "SELECT id FROM " + table
	_, err := sqlast.Parse(q) // want `SQL text reaching sqlast\.Parse is not derived from sqlast rendering`
	return err
}

// fmt results are unknown call results: tainted.
func sprintf(table string) error {
	q := fmt.Sprintf("SELECT id FROM %s", table)
	_, err := sqlast.Parse(q) // want `SQL text reaching sqlast\.Parse is not derived from sqlast rendering`
	return err
}

// Dataflow, not syntax: the taint survives an intermediate rebinding.
func laundered(cond string) error {
	q := "SELECT n.id FROM nodes n"
	q = q + " WHERE " + cond
	final := q
	_, err := sqlast.Parse(final) // want `SQL text reaching sqlast\.Parse is not derived from sqlast rendering`
	return err
}

// Clean on one path, tainted on the other: still a finding (the
// lattice joins to Mixed, and only Yes passes).
func mixedPaths(raw string, useRaw bool) error {
	q := "SELECT 1"
	if useRaw {
		q = q + raw
	}
	_, err := sqlast.Parse(q) // want `SQL text reaching sqlast\.Parse is not derived from sqlast rendering`
	return err
}

// The engine's one string entry point is a sink too; its SQL text is
// the first string argument, after the context.
func execSQL(db *engine.DB, table string) error {
	_, err := db.ExecSQL(nil, "SELECT id FROM "+table, engine.ExecOptions{}) // want `SQL text reaching db\.ExecSQL is not derived from sqlast rendering`
	return err
}
