package main

import (
	"fmt"
	"io"
	"sort"
)

// compareFiles prints, per workload and end-to-end metric, whether b
// improved, stayed or regressed against a, by the metric's bound and
// direction, and reports whether anything regressed. A pairing whose
// run-to-run spread (first to third quartile, as a share of the
// median, on either side) is wider than the bound is unresolved: the
// benchmark cannot tell. Files from differing machines are refused
// unless force; the git SHA is expected to differ and is only printed.
func compareFiles(w io.Writer, pathA, pathB string, force bool) (regressed bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	ma, mb := a.Machine, b.Machine
	fmt.Fprintf(w, "a: %s (git %s)\nb: %s (git %s)\n", pathA, ma.GitSHA, pathB, mb.GitSHA)
	ma.GitSHA, mb.GitSHA = "", ""
	if ma != mb {
		if !force {
			return false, fmt.Errorf("machines differ (%+v against %+v): pass -force to compare anyway", ma, mb)
		}
		fmt.Fprintf(w, "warning: machines differ (%+v against %+v)\n", ma, mb)
	}
	fmt.Fprintf(w, "%-13s %-24s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "a median", "b median", "change", "spread", "bound", "verdict")
	for _, name := range workloadNames {
		for _, d := range endToEndMetrics {
			va, vb := samples(a, name, d.Name), samples(b, name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			medA, medB := median(va), median(vb)
			change := (medB - medA) / medA
			worse := change
			if d.Better == "higher" {
				worse = -change
			}
			spread := spreadOf(va)
			if s := spreadOf(vb); s > spread {
				spread = s
			}
			verdict := "unchanged"
			switch {
			case spread > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "REGRESSED"
				regressed = true
			case worse < -d.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-13s %-24s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%%  %s (n=%d,%d)\n",
				name, d.Name, medA, medB, 100*change, 100*spread, 100*d.Bound, verdict, len(va), len(vb))
		}
	}
	return regressed, nil
}

// samples collects a metric's values over a file's untraced runs of a
// workload.
func samples(rf *resultsFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// spreadOf is the distance between the first and third quartile as a
// share of the median, the quartiles taken as Python's
// statistics.quantiles(xs, n=4) takes them (the driver's rule: the
// i-th lies at position i(n+1)/4 of the sorted sample, interpolated).
// With fewer than four runs the spread is taken as 0.
func spreadOf(xs []float64) float64 {
	n := len(xs)
	if n < 4 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (quartile(3) - quartile(1)) / median(xs)
}
