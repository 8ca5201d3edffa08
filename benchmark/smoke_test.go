package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// benchmarkJSON is the part of BENCHMARK.json the code mirrors.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestContractMatchesCode fails when BENCHMARK.json and metrics.go
// name different workloads or metrics.
func TestContractMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloadNames[i])
		}
	}
	if len(bj.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(bj.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range bj.EndToEnd {
		if got := (metricDef{m.Name, m.Unit, m.Better, m.Bound}); got != endToEndMetrics[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, got, endToEndMetrics[i])
		}
	}
	if len(bj.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(bj.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bj.PerLayer {
		if got := (metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better}); got != perLayerMetrics[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, got, perLayerMetrics[i])
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at a fiftieth
// of the size: every named metric must come out exactly once, with
// its unit and a finite value, and no operation may fail.
func TestSmoke(t *testing.T) {
	start := time.Now()
	cfg := defaultConfig()
	cfg.Seed = 7
	cfg.OutDir = t.TempDir()
	cfg.Scale, cfg.Docs, cfg.PassLen, cfg.Passes, cfg.SetupReps = 0.02, 12, 50, 2, 1
	for _, trace := range []bool{false, true} {
		cfg.Trace = trace
		defs := endToEndMetrics
		if trace {
			defs = perLayerMetrics
		}
		for _, name := range workloadNames {
			res, err := runWorkload(cfg, name)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", name, trace, res.Attempted, res.Failed, res.Failures)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.Name)
					continue
				}
				if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v %q, want a finite value in %q", name, trace, d.Name, m.Value, m.Unit, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, m.Value)
				}
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("smoke took %v, want under 10s", d)
	}
}

// TestExplainSelfTimes pins how operator self times are derived from
// EXPLAIN ANALYZE text, on a pipeline with a nested subplan.
func TestExplainSelfTimes(t *testing.T) {
	text := "scan a: full scan [loops=1 in=0 out=10 probes=0 time=10ms] est_rows=10 q=1.00\n" +
		"filter a: REGEXP_LIKE(a.path, '^/x/[^/]+$') AND EXISTS (...) [loops=0 in=10 out=4 probes=0 time=3ms] est_rows=4\n" +
		"  exists subplan [loops=10 in=0 out=4 probes=0 time=2ms]\n" +
		"    scan c: index lookup c_par [loops=10 in=0 out=7 probes=10 time=1.5ms] est_rows=1 q=1.00\n" +
		"    project: 1 [loops=0 in=7 out=7 probes=0 time=500µs]\n" +
		"scan b: index lookup b_pk [loops=4 in=0 out=4 probes=4 time=5ms] est_rows=1 q=1.00\n" +
		"project: id, dewey_pos [loops=0 in=4 out=4 probes=0 time=1ms]\n" +
		"distinct [loops=1 in=4 out=4 probes=0 mem=64B time=0s]\n" +
		"sort: b.dewey_pos [loops=1 in=4 out=4 probes=0 time=250µs]\n" +
		"total: rows=4 peak-mem=64B\n"
	s := newOpSums()
	if err := s.add(text); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"scan":    (10 - 3 - 5) + (1.5 - 0.5) + (5 - 1), // a, c, b
		"filter":  3 - 2,
		"subplan": 2 - 1.5,
		"project": 0.5 + 1,
		"sort":    0.25,
	}
	for k, w := range want {
		if got := s.selfMs[k]; math.Abs(got-w) > 1e-9 {
			t.Errorf("self time of %s = %v ms, want %v", k, got, w)
		}
	}
	if s.rowsExamined != 21 || s.probes != 14 || s.regexRows != 10 || s.resultRows != 4 || s.peakMem != 64 {
		t.Errorf("sums = %+v", s)
	}
}

// TestSpreadMatchesDriver pins -compare's quartile spread to the
// driver's rule, Python's statistics.quantiles(xs, n=4).
func TestSpreadMatchesDriver(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 0},
		{[]float64{1, 2, 3, 4}, 1},
		{[]float64{5, 1, 9, 2, 7}, 1.3},
		{[]float64{177.2, 176.0, 159.2, 161.0, 179.9, 174.2, 157.3, 158.9, 173.6, 184.8}, 0.10782058654399065},
	} {
		if got := spreadOf(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spreadOf(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
