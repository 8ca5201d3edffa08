// Command xvet is the repository's multichecker: it runs the standard
// `go vet` passes and then the custom invariant analyzers from
// internal/analysis (rawsql, deweycmp, regexploop, errdrop,
// recoverguard, opstats, ctxflow, lockscope, sqltaint, hotalloc,
// goleak, syncerr, statflow, snapfreeze, guardedby, walorder,
// xvetignore) that enforce the paper-derived disciplines the type
// system cannot see — including the interprocedural publication
// protocol (snapshot immutability, lock annotations, WAL-before-
// publish ordering) checked over the callgraph package.
//
// Usage:
//
//	xvet [-novet] [-only name,name] [-nocache] [-timing] [-list] [-json] [packages]
//	xvet -transcheck [-json]
//	xvet -plancheck [-matrix n] [-json]
//
// Packages default to ./... resolved against the enclosing module.
//
// Exit status: 0 if everything is clean, 1 if go vet fails or any
// analyzer/validator reports a finding, 2 on a package load failure or
// internal error. -novet skips the go vet subprocess (CI runs it as
// its own step); -only restricts the custom analyzers; -json emits
// machine-readable diagnostics on stdout instead of the text form.
//
// Analyzer results are cached per package under <module>/.xvetcache/,
// keyed by the analyzer set, the xvet binary's own signature, and the
// content of the package and its module-internal dependencies, so a
// warm run re-checks only what changed. -nocache bypasses the cache
// entirely. -timing reports per-analyzer wall time after the sweep.
//
// -transcheck runs the static translation validator instead of the
// analyzers: every Table 1 pattern derivation — over a synthetic
// axis/shape matrix and over all patterns traced while translating
// the fig3 and XPathMark query corpora — is checked for language
// equivalence against a reference automaton built directly from the
// axis semantics.
//
// -plancheck runs the static plan-equivalence checker instead of the
// analyzers: the fig3 and XPathMark corpora plus a seeded random query
// matrix (-matrix queries per workload, each compiled under both
// translators) are translated, compiled, and every compiled plan is
// certificate-checked against the logical form of its SQL statement;
// §4.5 path-filter omissions are re-justified independently.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/plancheck"
	"repro/internal/transcheck"
)

// jsonDiag is the machine-readable diagnostic form emitted by -json:
// one JSON object per line (JSON Lines), stable field names. It is
// also the cached on-disk form — positions survive without a FileSet.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (d jsonDiag) text() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Column, d.Analyzer, d.Message)
}

const (
	exitClean    = 0
	exitFindings = 1
	exitInternal = 2
)

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command, factored for tests: dir anchors module
// discovery, the return value is the process exit code (0 clean, 1
// findings, 2 load failure or internal error).
func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	novet := fs.Bool("novet", false, "skip running the standard `go vet` passes first")
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	nocache := fs.Bool("nocache", false, "ignore and do not update the per-package result cache")
	list := fs.Bool("list", false, "list the custom analyzers and exit")
	asJSON := fs.Bool("json", false, "emit diagnostics as JSON Lines on stdout")
	timing := fs.Bool("timing", false, "report per-analyzer wall time after the sweep")
	trans := fs.Bool("transcheck", false, "run the static translation validator instead of the analyzers")
	plan := fs.Bool("plancheck", false, "run the static plan-equivalence checker instead of the analyzers")
	matrixN := fs.Int("matrix", 2500, "with -plancheck: random queries per workload in the seeded matrix")
	if err := fs.Parse(args); err != nil {
		return exitInternal
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return exitClean
	}
	if *trans {
		return runTranscheck(*asJSON, stdout, stderr)
	}
	if *plan {
		return runPlancheck(*asJSON, *matrixN, stdout, stderr)
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings := false
	if !*novet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Dir = dir
		cmd.Stdout = stdout
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			findings = true
		}
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(stderr, "xvet:", err)
		return exitInternal
	}
	res, err := runAnalyzers(dir, analyzers, patterns, *asJSON, !*nocache, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "xvet:", err)
		return exitInternal
	}
	if *timing {
		if err := reportTiming(res, *asJSON, stdout); err != nil {
			fmt.Fprintln(stderr, "xvet:", err)
			return exitInternal
		}
	}
	if findings || res.Findings > 0 {
		return exitFindings
	}
	return exitClean
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return analysis.All(), nil
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a := analysis.ByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// analyzerRun summarizes one sweep for callers and tests.
type analyzerRun struct {
	Findings int // diagnostics emitted
	Loaded   int // packages type-checked and analyzed this run
	Hits     int // packages answered from the result cache

	// Timing accumulates each analyzer's wall time across the packages
	// loaded this run. Cache hits contribute nothing: their analyzers
	// never ran, which is exactly what -timing should show.
	Timing map[string]time.Duration
}

// jsonTiming is the -timing record emitted alongside diagnostics under
// -json: one object per analyzer, distinguished from jsonDiag by its
// "millis" field.
type jsonTiming struct {
	Analyzer string  `json:"analyzer"`
	Millis   float64 `json:"millis"`
}

// reportTiming prints the per-analyzer wall-time summary, slowest
// first, so the cost of the interprocedural passes (snapfreeze,
// guardedby, walorder build call graphs per package) stays visible.
func reportTiming(res analyzerRun, asJSON bool, stdout io.Writer) error {
	names := make([]string, 0, len(res.Timing))
	for name := range res.Timing {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if res.Timing[names[i]] != res.Timing[names[j]] {
			return res.Timing[names[i]] > res.Timing[names[j]]
		}
		return names[i] < names[j]
	})
	if asJSON {
		enc := json.NewEncoder(stdout)
		for _, name := range names {
			rec := jsonTiming{Analyzer: name, Millis: float64(res.Timing[name]) / float64(time.Millisecond)}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
		return nil
	}
	var total time.Duration
	for _, name := range names {
		total += res.Timing[name]
	}
	fmt.Fprintf(stdout, "xvet: timing: %d packages analyzed, %d from cache, analyzers %v total\n",
		res.Loaded, res.Hits, total.Round(time.Millisecond))
	for _, name := range names {
		fmt.Fprintf(stdout, "xvet: timing: %-12s %v\n", name, res.Timing[name].Round(time.Millisecond))
	}
	return nil
}

func runAnalyzers(dir string, analyzers []*analysis.Analyzer, patterns []string, asJSON, useCache bool, stdout io.Writer) (analyzerRun, error) {
	var res analyzerRun
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		return res, err
	}
	pkgDirs, err := loader.Dirs(patterns...)
	if err != nil {
		return res, err
	}
	var cache *resultCache
	if useCache {
		if cache, err = newResultCache(loader, analyzers); err != nil {
			return res, err
		}
	}

	enc := json.NewEncoder(stdout)
	emit := func(d jsonDiag) error {
		res.Findings++
		if asJSON {
			return enc.Encode(d)
		}
		_, err := fmt.Fprintln(stdout, d.text())
		return err
	}

	for _, pkgDir := range pkgDirs {
		importPath, err := loader.ImportPath(pkgDir)
		if err != nil {
			return res, err
		}
		if cache != nil {
			if diags, ok := cache.get(importPath); ok {
				res.Hits++
				for _, d := range diags {
					if err := emit(d); err != nil {
						return res, err
					}
				}
				continue
			}
		}
		pkg, err := loader.Load(importPath)
		if err != nil {
			return res, err
		}
		diags, timings, err := analysis.RunTimed(pkg, analyzers)
		if err != nil {
			return res, err
		}
		res.Loaded++
		if res.Timing == nil {
			res.Timing = make(map[string]time.Duration, len(timings))
		}
		for name, d := range timings {
			res.Timing[name] += d
		}
		jds := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			jds = append(jds, jsonDiag{
				File:     pos.Filename,
				Line:     pos.Line,
				Column:   pos.Column,
				Analyzer: d.Analyzer.Name,
				Message:  d.Message,
			})
		}
		if cache != nil {
			if err := cache.put(importPath, jds); err != nil {
				return res, err
			}
		}
		for _, d := range jds {
			if err := emit(d); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// runTranscheck executes both halves of the translation validator and
// reports findings; the exit status is the CI gate.
func runTranscheck(asJSON bool, stdout, stderr io.Writer) int {
	type result struct {
		name     string
		findings []transcheck.Finding
		stats    transcheck.Stats
	}
	var results []result
	fail := false

	mf, ms, err := transcheck.CheckMatrix()
	if err != nil {
		fmt.Fprintln(stderr, "xvet: transcheck matrix:", err)
		return exitInternal
	}
	results = append(results, result{"matrix", mf, ms})

	cf, cs, err := transcheck.CheckCorpus()
	if err != nil {
		fmt.Fprintln(stderr, "xvet: transcheck corpus:", err)
		return exitInternal
	}
	results = append(results, result{"corpus", cf, cs})

	enc := json.NewEncoder(stdout)
	for _, r := range results {
		for _, f := range r.findings {
			fail = true
			if asJSON {
				if err := enc.Encode(f); err != nil {
					fmt.Fprintln(stderr, "xvet:", err)
					return exitInternal
				}
			} else {
				fmt.Fprintf(stdout, "transcheck: %s\n", f)
			}
		}
		if !asJSON {
			switch r.name {
			case "matrix":
				fmt.Fprintf(stdout, "transcheck: matrix: %d derivations checked, %d findings\n",
					r.stats.Checked, len(r.findings))
			case "corpus":
				fmt.Fprintf(stdout, "transcheck: corpus: %d queries translated, %d distinct patterns checked, %d findings\n",
					r.stats.Queries, r.stats.Checked, len(r.findings))
			}
		}
	}
	if fail {
		return exitFindings
	}
	return exitClean
}

// runPlancheck sweeps the query corpora and the seeded random matrix
// through both translators, certificate-checking every compiled plan.
func runPlancheck(asJSON bool, matrixN int, stdout, stderr io.Writer) int {
	type result struct {
		name     string
		findings []plancheck.Finding
		stats    plancheck.Stats
	}
	var results []result

	cf, cs, err := plancheck.CheckCorpus()
	if err != nil {
		fmt.Fprintln(stderr, "xvet: plancheck corpus:", err)
		return exitInternal
	}
	results = append(results, result{"corpus", cf, cs})

	mf, ms, err := plancheck.CheckMatrix(matrixN, 1)
	if err != nil {
		fmt.Fprintln(stderr, "xvet: plancheck matrix:", err)
		return exitInternal
	}
	results = append(results, result{"matrix", mf, ms})

	enc := json.NewEncoder(stdout)
	fail := false
	for _, r := range results {
		for _, f := range r.findings {
			fail = true
			if asJSON {
				if err := enc.Encode(f); err != nil {
					fmt.Fprintln(stderr, "xvet:", err)
					return exitInternal
				}
			} else {
				fmt.Fprintf(stdout, "plancheck: %s\n", f)
			}
		}
		if !asJSON {
			fmt.Fprintf(stdout, "plancheck: %s: %d queries, %d plans checked (%d with parameter slots open), %d skipped, %d omissions audited, %d findings\n",
				r.name, r.stats.Queries, r.stats.Checked, r.stats.Slotted, r.stats.Skipped, r.stats.Omissions, len(r.findings))
		}
	}
	if fail {
		return exitFindings
	}
	return exitClean
}
