// Sanctioned SQL flows sqltaint must not flag.
package ok

import (
	"strings"

	"repro/internal/engine"
	"repro/internal/sqlast"
)

// Constants (including compiler-folded concatenation) are
// audit-visible in the source.
func constant() error {
	_, err := sqlast.Parse("SELECT d.pos FROM dewey d" + " ORDER BY d.pos")
	return err
}

// Round-tripping through the sanctioned emitter stays clean.
func rendered() error {
	st, err := sqlast.Parse("SELECT id FROM nodes")
	if err != nil {
		return err
	}
	q := sqlast.Render(st)
	_, err = sqlast.Parse(q)
	return err
}

// String parameters are the taint boundary: the caller answers for
// what it passes at its own sinks.
func boundary(q string) error {
	_, err := sqlast.Parse(q)
	return err
}

// The same boundary holds at the engine's string entry point.
func execSQL(db *engine.DB, q string) error {
	_, err := db.ExecSQL(nil, q, engine.ExecOptions{})
	return err
}

// Whitespace-only passthroughs preserve derivation.
func trimmed(q string) error {
	_, err := sqlast.Parse(strings.TrimSpace(q))
	return err
}

// A function literal is its own scope with its own parameter
// boundary.
func closure() func(string) error {
	return func(q string) error {
		_, err := sqlast.Parse(q)
		return err
	}
}

// The REPL exemption shape: raw input with a reasoned suppression.
func repl(line string) error {
	raw := "EXPLAIN " + line
	//xvet:ignore sqltaint -- test fixture mirroring cmd/xsql's REPL exemption
	_, err := sqlast.Parse(raw)
	return err
}
