package core

import (
	"testing"
)

// TestPredicateVariantsAgainstOracle pushes through the rarer
// predicate translation paths on both translators.
func TestPredicateVariantsAgainstOracle(t *testing.T) {
	tr, st, ev := setup(t)
	trE, stE, _ := setupEdge(t)
	queries := []string{
		// flipped comparisons (constant on the left).
		"//F[2 = .]",
		"//F[2 != .]",
		"//F[3 <= .]",
		"//F[8 > .]",
		"//D[4 >= @x]",
		// static comparisons folding to true/false.
		"/A/B[2 >= 2]",
		"/A/B[2 > 2]",
		"/A/B['a' != 'b']",
		"/A/B[4 mod 3 = 1]",
		"/A/B[6 div 2 = 3]",
		// arithmetic with the constant on the left of the path.
		"//F[10 - . = 8]",
		"//F[14 div . = 2]",
		// count on the right side.
		"//E[2 = count(F)]",
		"//E[1 < count(F)]",
		// comparisons against attribute values on child paths.
		"//C[D/@x = 4]",
		"//C[D/@x != 5]",
		// predicates on union branches.
		"/A/B[C[D] | G]",
		// nested not.
		"/A/B[not(not(not(C)))]",
		// text() in a child path comparison.
		"//C[D/text() = 4]",
		// '.' existence (always true for bound rows).
		"//F[.]",
	}
	for _, q := range queries {
		check(t, tr, st, ev, q)
		check(t, trE, stE, ev, q)
	}
}

func TestUnsupportedPredicates(t *testing.T) {
	tr, _, _ := setup(t)
	trE, _, _ := setupEdge(t)
	for _, q := range []string{
		"//F[C * D = 4]",           // arithmetic over two paths
		"//F[. = position()]",      // position in comparison with path
		"//F[count(C) = count(D)]", // count vs count
		"//F[C + 1]",               // bare arithmetic predicate (positional)
	} {
		if _, err := tr.Translate(q); err == nil {
			t.Errorf("schema-aware Translate(%q) should fail", q)
		}
		if _, err := trE.Translate(q); err == nil {
			t.Errorf("edge Translate(%q) should fail", q)
		}
	}
}

func TestPredicatePathWithInternalPredicates(t *testing.T) {
	tr, st, ev := setup(t)
	trE, stE, _ := setupEdge(t)
	for _, q := range []string{
		"/A/B[C[E[F=2]]]",
		"/A/B[C[not(D)]/E]",
		"//B[C[D]/D]",
	} {
		check(t, tr, st, ev, q)
		check(t, trE, stE, ev, q)
	}
}

func TestJoinClauseVariants(t *testing.T) {
	tr, st, ev := setup(t)
	trE, stE, _ := setupEdge(t)
	for _, q := range []string{
		"//E[F != F]",
		"//E[F < F]",
		"//B[C/D = C/E/F]",
		"//B[C/D != C/E/F]",
		"//E[F = /A/B/C/D]",
		"//C[. = D]", // self vs child path
		"//C[D = .]", // flipped
		// attribute operands: on the predicated element, and as the
		// terminal of a chain (the Edge mapping reads both from attr).
		"//D[@x = .]",
		"//D[. = @x]",
		"//D[@x = @x]",
		"//D[@x != /A/@x]",
		"/A[@x < B/C/D/@x]",
		"//C[D/@x = D]",
		"//C[D = D/@x]",
		"//B[C/D/@x > C/E/F]",
		"//B[C/D/@x = /A/@x]",
	} {
		check(t, tr, st, ev, q)
		check(t, trE, stE, ev, q)
	}
}

func TestOpToXPathCoversAll(t *testing.T) {
	// Exercised via countComparison static folding: zero chains.
	tr, st, ev := setup(t)
	for _, q := range []string{
		"//E[count(Z) = 0]", // Z unknown -> zero chains -> static compare
		"//E[count(Z) != 0]",
		"//E[count(Z) < 1]",
		"//E[count(Z) <= 0]",
		"//E[count(Z) > 0]",
		"//E[count(Z) >= 1]",
	} {
		check(t, tr, st, ev, q)
	}
}
