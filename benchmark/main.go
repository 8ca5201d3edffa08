// Command benchmark is the repository's benchmark: XPath in, node set
// out, and XML in, durable, on four workloads, with per-layer
// attribution taken from outside the program. README.md describes the
// workloads and metrics; BENCHMARK.json is the contract with the
// driver that runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.Workload, "workload", "all", "fig3_warm, fig3_edge, adhoc_cold, load_durable or all")
	flag.Int64Var(&cfg.Seed, "seed", expectedSeed, "seed the inputs are generated from")
	flag.Float64Var(&cfg.Seconds, "seconds", cfg.Seconds, "timed seconds per workload")
	trace := flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
	flag.StringVar(&cfg.OutDir, "out", cfg.OutDir, "directory for results, traces and temporary stores")
	results := flag.String("results", "", "results file the runs are appended to (default <out>/results-<git sha>.json)")
	compare := flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
	force := flag.Bool("force", false, "with -compare: compare across differing machines")
	updateExpected := flag.String("update-expected", "", "write the seed-42 input fingerprints of the run to this file")
	flag.Parse()
	cfg.Trace = *trace != 0

	// One client on the serial engine, and one processor for it and
	// the collector: on the sandbox's two shared hardware threads a
	// second, mostly idle scheduler thread slows the first by up to a
	// third for tens of seconds at a time, which no statistic taken
	// inside a run removes. The machine fingerprint records the value.
	runtime.GOMAXPROCS(1)

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *force)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	names := []string{cfg.Workload}
	if cfg.Workload == "all" {
		names = workloadNames
	}
	defs := endToEndMetrics
	if cfg.Trace {
		defs = perLayerMetrics
	}
	var runs []*result
	for _, name := range names {
		res, err := runWorkload(cfg, name)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		report(os.Stdout, res, defs)
		runs = append(runs, res)
	}
	reportSpeedup(os.Stdout, runs)
	m := thisMachine()
	if *results == "" {
		// A results file holds runs of one commit, so the default is
		// named after it.
		sha := m.GitSHA
		if len(sha) > 12 {
			sha = sha[:12]
		}
		*results = filepath.Join(cfg.OutDir, "results-"+sha+".json")
	}
	if err := appendResults(*results, m, runs); err != nil {
		fatal(err)
	}
	if *updateExpected != "" {
		if err := writeExpected(*updateExpected, runs); err != nil {
			fatal(err)
		}
	}
	line, err := contractLine(runs)
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
	for _, r := range runs {
		if !r.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// reportSpeedup prints the Figure 3 shape line when both mappings
// ran: the geometric mean over the 22 queries of the schema-oblivious
// median latency over the schema-aware one. It is not gated.
func reportSpeedup(w *os.File, runs []*result) {
	var warm, edge *result
	for _, r := range runs {
		switch r.Workload {
		case "fig3_warm":
			warm = r
		case "fig3_edge":
			edge = r
		}
	}
	if warm == nil || edge == nil || len(warm.PerQueryUs) == 0 {
		return
	}
	var ratios []float64
	for id, ppf := range warm.PerQueryUs {
		ratios = append(ratios, edge.PerQueryUs[id]/ppf)
	}
	fmt.Fprintf(w, "ppf_speedup_geomean %.3f x (edge p50 / ppf p50 over %d queries)\n", geomean(ratios), len(ratios))
}

// writeExpected rewrites expected.json from full-size seed-42 runs.
func writeExpected(path string, runs []*result) error {
	exp := expectedFile{Seed: expectedSeed, Workloads: map[string]inputFingerprint{}}
	for _, r := range runs {
		if r.Seed != expectedSeed {
			return fmt.Errorf("-update-expected needs -seed %d", expectedSeed)
		}
		exp.Workloads[r.Workload] = r.Inputs
	}
	data, err := json.MarshalIndent(exp, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
