// Command xbench regenerates the paper's evaluation tables and
// figures (Section 5, Appendix C) on the embedded engine.
//
// Usage:
//
//	xbench -experiment fig3|appc-small|appc-large|appc-dblp|joins|\
//	                   explain|planquality|ablate-pathfilter|ablate-fkjoin|mixed|all
//	       [-scale N] [-reps N] [-budget 60s] [-seed N] [-noverify]
//	       [-batch N] [-max-mem BYTES] [-max-rows N]
//	       [-json out.json]
//
// Scale 1 approximates the paper's small (12 MB) XMark document;
// appc-large uses 10x (the paper's 113 MB document). Timings cannot
// match a 2006 Oracle installation; the reproduction target is the
// relative shape of each table (see EXPERIMENTS.md).
//
// -experiment mixed is the one non-paper experiment: it measures fig3
// reader latency with and without a concurrent bulk-loading writer on
// the snapshot-isolated engine (DESIGN.md §12). It is excluded from
// "all" (which regenerates exactly the paper's tables).
//
// The engine decides per statement whether to run it on its morsel
// executor, with GOMAXPROCS workers at most: set GOMAXPROCS=1 in the
// environment for the paper's serial configuration (see
// EXPERIMENTS.md). -batch overrides the engine's row-id batch capacity
// for the SQL-based systems (0 = engine default; results are
// batch-size invariant). -max-mem and -max-rows cap each statement's
// materialized bytes and produced rows (0 = unlimited, the paper's
// configuration); an exceeded budget prints ERR for that cell. -json
// writes every measurement as a JSON array of records, each carrying
// the GOMAXPROCS it ran under, so the repo can accumulate a perf
// trajectory (BENCH_<experiment>.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run")
	scale := flag.Float64("scale", 1, "workload scale (1 = paper's small document)")
	reps := flag.Int("reps", 5, "timed repetitions per query (the paper used 5)")
	budget := flag.Duration("budget", 60*time.Second, "per-query budget; slower runs print '~' like the paper")
	seed := flag.Int64("seed", 42, "generator seed")
	noverify := flag.Bool("noverify", false, "skip cross-checking every system against the oracle")
	batch := flag.Int("batch", 0, "engine row-id batch capacity for SQL-based systems (0 = engine default)")
	maxMem := flag.Int64("max-mem", 0, "per-statement memory budget in bytes for SQL-based systems (0 = unlimited)")
	maxRows := flag.Int64("max-rows", 0, "per-statement produced-row budget for SQL-based systems (0 = unlimited)")
	jsonOut := flag.String("json", "", "also write measurements as JSON records to this file")
	flag.Parse()

	lim := limits{mem: *maxMem, rows: *maxRows, batch: *batch}
	if err := run(*experiment, *scale, *reps, *budget, *seed, !*noverify, lim, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "xbench:", err)
		os.Exit(1)
	}
}

// limits carries the per-statement resource budgets and the engine
// batch capacity into run.
type limits struct {
	mem, rows int64
	batch     int
}

func run(experiment string, scale float64, reps int, budget time.Duration, seed int64, verify bool, lim limits, jsonOut string) error {
	opts := bench.Opts{Reps: reps, Budget: budget, Verify: verify}
	var records []bench.Record
	if jsonOut != "" {
		opts.Sink = func(r bench.Record) { records = append(records, r) }
	}

	xmarkAt := func(s float64) (*bench.Workload, error) {
		fmt.Fprintf(os.Stderr, "generating and loading XMark workload (scale %g)...\n", s)
		w, err := bench.NewXMark(s, seed)
		if err == nil {
			w.MaxMemoryBytes, w.MaxRows = lim.mem, lim.rows
			w.BatchSize = lim.batch
		}
		return w, err
	}
	dblpAt := func(s float64) (*bench.Workload, error) {
		fmt.Fprintf(os.Stderr, "generating and loading DBLP workload (scale %g)...\n", s)
		w, err := bench.NewDBLP(s, seed)
		if err == nil {
			w.MaxMemoryBytes, w.MaxRows = lim.mem, lim.rows
			w.BatchSize = lim.batch
		}
		return w, err
	}

	show := func(t *bench.Table, err error) error {
		if err != nil {
			return err
		}
		fmt.Println(t.String())
		return nil
	}

	runExperiment := func() error {
		switch experiment {
		case "fig3":
			x, err := xmarkAt(scale)
			if err != nil {
				return err
			}
			d, err := dblpAt(scale)
			if err != nil {
				return err
			}
			return show(bench.Fig3([]*bench.Workload{x, d}, opts))
		case "appc-small":
			w, err := xmarkAt(scale)
			if err != nil {
				return err
			}
			return show(bench.AppendixC(w, opts))
		case "appc-large":
			w, err := xmarkAt(scale * 10)
			if err != nil {
				return err
			}
			return show(bench.AppendixC(w, opts))
		case "appc-dblp":
			w, err := dblpAt(scale)
			if err != nil {
				return err
			}
			return show(bench.AppendixC(w, opts))
		case "joins":
			w, err := xmarkAt(minScale(scale, 0.05))
			if err != nil {
				return err
			}
			if err := show(bench.JoinCounts(w)); err != nil {
				return err
			}
			d, err := dblpAt(minScale(scale, 0.05))
			if err != nil {
				return err
			}
			return show(bench.JoinCounts(d))
		case "explain":
			x, err := xmarkAt(scale)
			if err != nil {
				return err
			}
			d, err := dblpAt(scale)
			if err != nil {
				return err
			}
			return show(bench.ExplainCheck([]*bench.Workload{x, d}, opts))
		case "planquality":
			x, err := xmarkAt(scale)
			if err != nil {
				return err
			}
			d, err := dblpAt(scale)
			if err != nil {
				return err
			}
			return show(bench.PlanQuality([]*bench.Workload{x, d}, opts))
		case "ablate-pathfilter":
			w, err := xmarkAt(scale)
			if err != nil {
				return err
			}
			return show(bench.AblatePathFilter(w, opts))
		case "ablate-fkjoin":
			w, err := xmarkAt(scale)
			if err != nil {
				return err
			}
			return show(bench.AblateFKJoin(w, opts))
		case "mixed":
			w, err := xmarkAt(scale)
			if err != nil {
				return err
			}
			return show(bench.Mixed(w, opts))
		case "all":
			x, err := xmarkAt(scale)
			if err != nil {
				return err
			}
			d, err := dblpAt(scale)
			if err != nil {
				return err
			}
			if err := show(bench.JoinCounts(x)); err != nil {
				return err
			}
			if err := show(bench.Fig3([]*bench.Workload{x, d}, opts)); err != nil {
				return err
			}
			if err := show(bench.AppendixC(x, opts)); err != nil {
				return err
			}
			if err := show(bench.AppendixC(d, opts)); err != nil {
				return err
			}
			if err := show(bench.AblatePathFilter(x, opts)); err != nil {
				return err
			}
			return show(bench.AblateFKJoin(x, opts))
		default:
			return fmt.Errorf("unknown experiment %q", experiment)
		}
	}

	if err := runExperiment(); err != nil {
		return err
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(jsonOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d records to %s\n", len(records), jsonOut)
	}
	return nil
}

func minScale(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
