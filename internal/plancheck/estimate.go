package plancheck

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/sqlast"
)

// Estimate-provenance obligations. The planner annotates every join
// step with a cardinality estimate (EstRows/EstSource) and may drop
// residual conjuncts its synopsis proves true for every row
// (StepShape.Omitted). The checker does not trust either annotation:
// the source must be one of the planner's two declared provenances,
// the estimate must be a usable number, and each omission is re-proved
// here with plancheck's own decision procedure from the recorded
// evidence — which is itself cross-checked against the live table
// synopsis, so a forged shape cannot smuggle a filter away.

// checkEstimates validates one step's estimate annotation and omitted
// filters, appending discharged obligations to cert.
func checkEstimates(db *engine.DB, s engine.StepShape, loc string, cert *Certificate) []Finding {
	var fs []Finding
	fail := func(format string, args ...any) {
		fs = append(fs, Finding{Rule: "estimate-provenance",
			Detail: fmt.Sprintf("%s: step %s: %s", loc, s.Alias, fmt.Sprintf(format, args...))})
	}
	switch s.EstSource {
	case engine.EstSynopsis, engine.EstDefault:
	default:
		fail("unknown estimate source %q", s.EstSource)
	}
	if math.IsNaN(s.EstRows) || math.IsInf(s.EstRows, 0) || s.EstRows < 0 {
		fail("estimate %v is not a finite non-negative row count", s.EstRows)
	}
	if len(fs) == 0 {
		cert.step("estimate %s step %s: %.6g rows from %s", loc, s.Alias, s.EstRows, s.EstSource)
	}
	for _, o := range s.Omitted {
		if why := checkOmission(db, s, o); why != "" {
			fail("omitted %q: %s", o.Pred.Text(), why)
		} else {
			cert.step("omission %s step %s: %q proved by %s evidence", loc, s.Alias, o.Pred.Text(), o.Reason)
		}
	}
	return fs
}

// checkOmission re-derives one omitted filter's redundancy proof.
// Returns "" when the proof goes through, else the counterexample.
func checkOmission(db *engine.DB, s engine.StepShape, o engine.OmittedShape) string {
	t := db.Table(s.Table)
	if t == nil {
		return fmt.Sprintf("table %s does not exist", s.Table)
	}
	syn := t.Synopsis()
	if got := syn.Rows(); got != o.Rows {
		return fmt.Sprintf("evidence claims %d table rows, synopsis has %d", o.Rows, got)
	}

	switch o.Reason {
	case "empty-table":
		// Zero rows satisfy any predicate vacuously; the planner only
		// omits the recognizable single-column forms.
		if o.Rows != 0 {
			return fmt.Sprintf("empty-table evidence with %d rows", o.Rows)
		}
		switch o.Pred.Expr.(type) {
		case *sqlast.IsNull, *sqlast.Binary, *sqlast.Between:
			return ""
		}
		return "predicate form is not covered by the empty-table proof"

	case "not-null":
		isn, ok := o.Pred.Expr.(*sqlast.IsNull)
		if !ok || !isn.Negate {
			return "not-null evidence for a predicate that is not IS NOT NULL"
		}
		ci, why := omissionCol(isn.X, s, t)
		if why != "" {
			return why
		}
		if o.Nulls != 0 {
			return fmt.Sprintf("evidence claims %d NULLs, which does not prove IS NOT NULL", o.Nulls)
		}
		if n := syn.Col(ci).Nulls(); n != 0 {
			return fmt.Sprintf("synopsis counts %d NULLs in the column", n)
		}
		return ""

	case "int-range":
		colE, holds, why := intRangeGoal(o.Pred.Expr)
		if why != "" {
			return why
		}
		ci, why := omissionCol(colE, s, t)
		if why != "" {
			return why
		}
		if t.Cols[ci].Type != engine.TInt {
			// A mixed-type column's int range covers only its integer
			// values, so it cannot prove anything about the rest.
			return fmt.Sprintf("column %s is not INT-typed", t.Cols[ci].Name)
		}
		if n := syn.Col(ci).Nulls(); n != 0 || o.Nulls != 0 {
			return fmt.Sprintf("column has NULLs (evidence %d, synopsis %d); a NULL row fails the comparison", o.Nulls, n)
		}
		min, max, ok := syn.Col(ci).IntRange()
		if !ok {
			return "synopsis has no exact integer range for the column"
		}
		if min != o.Min || max != o.Max {
			return fmt.Sprintf("evidence claims range [%d,%d], synopsis has [%d,%d]", o.Min, o.Max, min, max)
		}
		if !holds(min, max) {
			return fmt.Sprintf("range [%d,%d] does not imply the predicate", min, max)
		}
		return ""
	}
	return fmt.Sprintf("unknown omission reason %q", o.Reason)
}

// intRangeGoal decomposes an int-range-omittable predicate into the
// column expression it constrains and the proof goal over the column's
// exact [min,max]: the goal holds exactly when every integer in the
// range satisfies the predicate.
func intRangeGoal(e sqlast.Expr) (colE sqlast.Expr, holds func(min, max int64) bool, why string) {
	switch x := e.(type) {
	case *sqlast.Binary:
		op, colSide, litSide := x.Op, x.L, x.R
		if _, ok := litSide.(*sqlast.IntLit); !ok {
			// 'lit op col' constrains col by the flipped operator.
			colSide, litSide = x.R, x.L
			op = flipCmp(op)
		}
		lit, ok := litSide.(*sqlast.IntLit)
		if !ok {
			return nil, nil, "comparison has no integer literal"
		}
		v := lit.Value
		switch op {
		case sqlast.OpLt:
			return colSide, func(_, max int64) bool { return max < v }, ""
		case sqlast.OpLe:
			return colSide, func(_, max int64) bool { return max <= v }, ""
		case sqlast.OpGt:
			return colSide, func(min, _ int64) bool { return min > v }, ""
		case sqlast.OpGe:
			return colSide, func(min, _ int64) bool { return min >= v }, ""
		}
		return nil, nil, fmt.Sprintf("operator %v is not covered by the int-range proof", op)
	case *sqlast.Between:
		lo, okL := x.Lo.(*sqlast.IntLit)
		hi, okH := x.Hi.(*sqlast.IntLit)
		if !okL || !okH {
			return nil, nil, "BETWEEN bounds are not integer literals"
		}
		return x.X, func(min, max int64) bool { return lo.Value <= min && max <= hi.Value }, ""
	}
	return nil, nil, "predicate form is not covered by the int-range proof"
}

// flipCmp mirrors a comparison across its operands: 'lit op col' holds
// iff 'col (flip op) lit' does.
func flipCmp(op sqlast.BinOp) sqlast.BinOp {
	switch op {
	case sqlast.OpLt:
		return sqlast.OpGt
	case sqlast.OpLe:
		return sqlast.OpGe
	case sqlast.OpGt:
		return sqlast.OpLt
	case sqlast.OpGe:
		return sqlast.OpLe
	}
	return op
}

// omissionCol resolves the column an omitted predicate constrains: it
// must be a bare column of the step's own table.
func omissionCol(e sqlast.Expr, s engine.StepShape, t *engine.Table) (int, string) {
	c, ok := e.(*sqlast.Col)
	if !ok {
		return -1, fmt.Sprintf("%s is not a bare column reference", e)
	}
	if c.Table != "" && c.Table != s.Alias {
		return -1, fmt.Sprintf("column %s does not belong to step alias %s", c, s.Alias)
	}
	ci := t.ColIndex(c.Column)
	if ci < 0 {
		return -1, fmt.Sprintf("table %s has no column %q", s.Table, c.Column)
	}
	return ci, ""
}
