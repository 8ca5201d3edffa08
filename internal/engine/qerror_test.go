package engine

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/sqlast"
)

// scanOrder lists the alias of every scan operator in execution
// order — the join order the plan actually committed to.
func scanOrder(reports []opReport) []string {
	var order []string
	for _, r := range reports {
		if r.Kind != "scan" {
			continue
		}
		// Labels read "scan <alias>: <access path>".
		rest := strings.TrimPrefix(r.Label, "scan ")
		if i := strings.IndexByte(rest, ':'); i >= 0 {
			rest = rest[:i]
		}
		order = append(order, rest)
	}
	return order
}

func sortedRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestFirstMatchFeedbackIsALowerBound is QD2's shape: the result alias
// drives, its ancestors come through prefix probes estimated at
// defaultDeweyFanout, and a trailing EXISTS makes the ancestor step run
// under first match. Every leaf has five ancestors — the estimate of 8
// is within a factor of two of that — but the second one probed already
// matches, so the step reports two rows consumed per leaf. Taken for the
// fan-out that is a q-error of 4 (EXPERIMENTS.md E11 lost a plan to it
// on Edge QD2); EXPLAIN ANALYZE takes it for the lower bound it is and
// reports no q-error over 2 on a plan whose estimates hold.
func TestFirstMatchFeedbackIsALowerBound(t *testing.T) {
	db := NewDB()
	anc, err := db.CreateTable("anc", Column{"id", TInt}, Column{"dewey_pos", TBytes})
	if err != nil {
		t.Fatal(err)
	}
	yr, err := db.CreateTable("yr", Column{"par", TInt}, Column{"val", TInt})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := db.CreateTable("leaf", Column{"id", TInt}, Column{"dewey_pos", TBytes})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	const leaves = 300
	for i := 0; i < leaves; i++ {
		pos := []byte{1, byte(i/16) + 1, byte(i%16) + 1, 1, 1, 1}
		leaf.MustInsert(NewInt(int64(i)), NewBytes(pos))
		for depth := 1; depth < len(pos); depth++ {
			if p := string(pos[:depth]); !seen[p] {
				seen[p] = true
				id := int64(len(seen))
				anc.MustInsert(NewInt(id), NewBytes(pos[:depth:depth]))
				// Only the ancestors at depth two hold a year that passes.
				val := int64(0)
				if depth == 2 {
					val = 9
				}
				yr.MustInsert(NewInt(id), NewInt(val))
			}
		}
	}
	for _, ix := range []struct {
		t    *Table
		name string
		col  string
	}{{anc, "anc_pk", "id"}, {anc, "anc_dp", "dewey_pos"}, {yr, "yr_par", "par"}, {leaf, "leaf_pk", "id"}} {
		if _, err := ix.t.CreateIndex(ix.name, ix.col); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := runSQL(db, "SELECT COUNT(*) FROM leaf s, anc a WHERE s.dewey_pos BETWEEN a.dewey_pos AND a.dewey_pos || X'FF'")
	if err != nil {
		t.Fatal(err)
	}
	if fan := float64(pairs.Rows[0][0].I) / leaves; qError(defaultDeweyFanout, fan) > 2 {
		t.Fatalf("fixture: %v ancestors a leaf, the estimate of %d is off by itself", fan, defaultDeweyFanout)
	}

	st := sqlast.MustParse("SELECT DISTINCT s.id, s.dewey_pos FROM anc a, leaf s WHERE EXISTS " +
		"(SELECT NULL FROM yr y WHERE y.par = a.id AND y.val >= 5) AND s.dewey_pos BETWEEN a.dewey_pos AND a.dewey_pos || X'FF' ORDER BY s.dewey_pos")
	rep, res, err := db.analyzeReport(st, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != leaves {
		t.Fatalf("%d rows, want %d", len(res.Rows), leaves)
	}
	if order := strings.Join(scanOrder(rep), ">"); order != "s>a>y" {
		t.Fatalf("join order %s, want the result alias driving its ancestors, the EXISTS trailing", order)
	}
	for _, r := range rep {
		if strings.HasPrefix(r.Label, "scan a: index prefix lookups") {
			if per := float64(r.RowsOut) / float64(r.Loops); per != 2 {
				t.Fatalf("the ancestor step consumed %v rows a leaf, want 2: first match did not stop it", per)
			}
		}
		if r.HasEst && r.Loops > 0 && r.QError > 2 {
			t.Errorf("%q reports q-error %.2f on a plan whose estimates hold", r.Label, r.QError)
		}
	}
}
