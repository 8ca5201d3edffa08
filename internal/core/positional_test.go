package core

import "testing"

// TestPositionalAndLast exercises the position()/last() translation
// over sibling-count subqueries on both translators.
func TestPositionalAndLast(t *testing.T) {
	tr, st, ev := setup(t)
	trE, stE, _ := setupEdge(t)
	queries := []string{
		"/A/B/C[last()]",
		"/A/B/C[position() = last()]",
		"/A/B/C[position() < last()]",
		"/A/B/C[position() != last()]",
		"/A/B/C[last() = 2]",
		"/A/B/C[last() > 1]",
		"/A/B/C[2 = last()]",
		"/A/B/C[1]",
		"/A/B/C[2]",
		"/A/B/C[3]",
		"/A/B/C[position() >= 2]",
		"/A/B/C[position()]",
		"//E/F[last()]",
		"//E/F[position() = 1 or position() = last()]",
		"//B/G[last()]",
	}
	for _, q := range queries {
		check(t, tr, st, ev, q)
		check(t, trE, stE, ev, q)
	}
}

func TestPositionalStillUnsupportedOffChildAxis(t *testing.T) {
	tr, _, _ := setup(t)
	for _, q := range []string{
		"//F[last()]",        // descendant step
		"/A/B/*[last()]",     // wildcard
		"//F/ancestor::B[1]", // backward step
	} {
		if _, err := tr.Translate(q); err == nil {
			t.Errorf("Translate(%q) should fail", q)
		}
	}
}

func TestSequentialPositionalRejected(t *testing.T) {
	tr, _, _ := setup(t)
	trE, _, _ := setupEdge(t)
	for _, q := range []string{
		"/A/B/C[D][1]",
		"/A/B/C[E][position() = last()]",
		"/A/B/C[D][not(last())]",
	} {
		if _, err := tr.Translate(q); err == nil {
			t.Errorf("schema-aware Translate(%q) should fail (sequential positional)", q)
		}
		if _, err := trE.Translate(q); err == nil {
			t.Errorf("edge Translate(%q) should fail (sequential positional)", q)
		}
	}
	// Positional first, then a value predicate, is fine.
	if _, err := tr.Translate("/A/B/C[1][D]"); err != nil {
		t.Errorf("positional-first should translate: %v", err)
	}
}
