package engine

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sqlast"
)

var update = flag.Bool("update", false, "rewrite the testdata/ golden plans")

// Cardinality estimates are a function of the data (the snapshot's
// synopsis) — never of how a plan happens to be executed, or how often.
// This test runs the same statements three times under serial,
// parallel, and several batch capacities on identically seeded
// databases and requires the plans they leave cached — operator labels
// and est_rows included — to agree exactly, and to agree with the plans
// committed in testdata. The last query probes m.k, whose 3000
// distinct values pass synopsis.HistCap: its estimate is rows over the
// distinct sketch's count, so a sketch that differed between
// processes (a per-process hash seed did) shows as drift from the
// committed text where the modes, sharing one process, still agree.
func TestEstimateDeterminismAcrossExecModes(t *testing.T) {
	queries := []string{
		"SELECT a.id FROM n a WHERE a.val >= 2",
		"SELECT DISTINCT a.tag FROM n a WHERE EXISTS " +
			"(SELECT b.id FROM n b WHERE b.par = a.id) ORDER BY a.tag DESC",
		"SELECT a.id, b.id FROM n a, n b WHERE a.val = 1 AND b.par = a.id",
		"SELECT a.id, m.k FROM n a, m WHERE a.val = 1 AND m.k = a.id",
	}
	modes := []struct {
		name string
		execMode
	}{
		{"serial", execMode{workers: 1}},
		{"parallel8", execMode{workers: 8}},
		{"batch1", execMode{workers: 1, batch: 1}},
		{"batch7", execMode{workers: 1, batch: 7}},
		{"parallel4batch3", execMode{workers: 4, batch: 3}},
	}

	// executedPlan executes st under opts three times and renders the
	// estimates of the last execution's plan.
	executedPlan := func(t *testing.T, db *DB, st sqlast.Statement, opts ExecOptions) string {
		t.Helper()
		var out string
		for i := 0; i < 3; i++ {
			reports, _, err := db.analyzeReport(st, opts)
			if err != nil {
				t.Fatal(err)
			}
			out = ""
			for _, r := range reports {
				if r.HasEst {
					out += fmt.Sprintf("%s est_rows=%.3f\n", r.Label, r.EstRows)
				} else {
					out += r.Label + "\n"
				}
			}
		}
		return out
	}

	var mrows [][]Value
	for i := 0; i < 6000; i++ {
		mrows = append(mrows, []Value{NewInt(int64(i % 3000))})
	}
	var plans string
	for _, sql := range queries {
		st, err := sqlast.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		var want string
		for _, m := range modes {
			// A fresh identically-seeded DB per mode: plans and caches
			// start equal, so any divergence below is the execution mode
			// leaking into estimation.
			db, _ := buildPair(t, 17, 400)
			mt, err := db.CreateTable("m", Column{"k", TInt})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mt.InsertBatch(mrows); err != nil {
				t.Fatal(err)
			}
			db.forceWorkers = m.workers
			got := executedPlan(t, db, st, m.ExecOptions)
			if m.name == modes[0].name {
				want = got
				plans += "-- " + sql + "\n" + got + "\n"
				continue
			}
			if got != want {
				t.Errorf("%s: plan under %s differs from serial:\n%s\nwant:\n%s",
					sql, m.name, got, want)
			}
		}
	}
	golden := filepath.Join("testdata", "estimate_determinism.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(plans), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/engine -run TestEstimateDeterminismAcrossExecModes -update)", err)
	}
	if plans != string(want) {
		t.Errorf("plans differ from %s:\n%s\nwant:\n%s", golden, plans, want)
	}
}
