package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"time"
)

// inputFingerprint is what expected.json pins of a workload's inputs
// and of the oracle's answers on them.
type inputFingerprint struct {
	Docs       map[string]docFingerprint    `json:"docs"`
	AdhocTexts int                          `json:"adhoc_texts,omitempty"`
	Results    map[string]resultFingerprint `json:"results"`
}

// expectedSeed is the seed expected.json was written for; other seeds
// are checked against the oracle only.
const expectedSeed = 42

//go:embed expected.json
var expectedJSON []byte

type expectedFile struct {
	Seed      int64                       `json:"seed"`
	Workloads map[string]inputFingerprint `json:"workloads"`
}

// checkExpected fails the run when a full-size seed-42 workload no
// longer generates the pinned inputs or oracle answers.
func checkExpected(cfg config, name string, got inputFingerprint, tl *tally) {
	if cfg.Seed != expectedSeed || !cfg.fullSize() {
		return
	}
	var exp expectedFile
	tl.attempted++
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		tl.fail("expected.json: %v", err)
		return
	}
	want, ok := exp.Workloads[name]
	if !ok {
		tl.fail("expected.json has no workload %s", name)
		return
	}
	if !reflect.DeepEqual(got, want) {
		tl.fail("inputs of %s drifted from expected.json:\n got  %+v\n want %+v", name, got, want)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, as written to the results file.
type result struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Failures   []string               `json:"failures,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
	Info       map[string]float64     `json:"info,omitempty"`         // not gated: tails, sample counts
	PerQueryUs map[string]float64     `json:"per_query_us,omitempty"` // median latency by query or template
	Inputs     inputFingerprint       `json:"inputs"`
}

func newResult(cfg config, name string, tl *tally, inputs inputFingerprint) *result {
	return &result{Workload: name, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Failures: tl.messages,
		Metrics: map[string]metricValue{}, Info: map[string]float64{}, Inputs: inputs}
}

// set records the named metrics, each exactly once and with the unit
// its definition gives; a missing, repeated or non-finite value is a
// harness bug and fails the run.
func (r *result) set(defs []metricDef, values map[string]float64) error {
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.Workload, d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		delete(values, d.Name)
	}
	for name := range values {
		return fmt.Errorf("%s: metric %s is not defined", r.Workload, name)
	}
	return nil
}

// runWorkload runs one workload and returns its result; an error
// means the harness could not complete, not that a check failed.
func runWorkload(cfg config, name string) (*result, error) {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	if cfg.Trace {
		return runTraced(cfg, name)
	}
	tl := &tally{}
	ws := &writeSide{}
	var g *gauge // read workloads only
	var rs *readSide
	var inputs inputFingerprint
	var setupS []float64
	if name == "load_durable" {
		var env *loadEnv
		for rep := 0; rep < cfg.SetupReps; rep++ {
			t0 := time.Now()
			var err error
			if env, err = setupLoad(cfg); err != nil {
				return nil, err
			}
			setupS = append(setupS, time.Since(t0).Seconds())
		}
		inputs = env.inputs
		rs = newReadSide(env.groups)
		base := liveHeapMB()
		t0 := time.Now()
		// At least three cycles, for fastest to choose among.
		for n := 0; !done(cfg, n, 3, t0, cfg.Seconds); n++ {
			if err := env.cycle(cfg, base, ws, rs, tl); err != nil {
				return nil, err
			}
		}
	} else {
		// Each set-up is followed by its share of the timed phase, so the
		// run's medians are taken over several instances of the stores.
		g = newGauge()
		base := liveHeapMB()
		for rep := 0; rep < cfg.SetupReps; rep++ {
			t0 := time.Now()
			env, err := setupRead(cfg, name, ws, tl)
			if err != nil {
				return nil, err
			}
			setupS = append(setupS, time.Since(t0).Seconds())
			if rs == nil {
				rs = newReadSide(env.groups)
			}
			inputs = env.inputs
			env.docs = nil // only the stores and the oracle's answers stay
			ws.heapMB = append(ws.heapMB, liveHeapMB()-base)
			env.timed(cfg, g, cfg.Seconds/float64(cfg.SetupReps), tl, rs)
			env.close(tl)
		}
	}
	checkExpected(cfg, name, inputs, tl)
	res := newResult(cfg, name, tl, inputs)
	values, perQuery := endToEnd(g, setupS, ws, rs, res.Info)
	res.PerQueryUs = perQuery
	return res, res.set(endToEndMetrics, values)
}

// setupRead sets one of the three read workloads up. When it fails
// part way, what it opened is closed again.
func setupRead(cfg config, name string, ws *writeSide, tl *tally) (*readEnv, error) {
	var env *readEnv
	var err error
	switch name {
	case "fig3_warm":
		env, err = setupFig3(cfg, mappingPPF, ws, tl)
	case "fig3_edge":
		env, err = setupFig3(cfg, mappingEdge, ws, tl)
	case "adhoc_cold":
		env, err = setupAdhoc(cfg, ws, tl)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil && env != nil {
		env.close(tl)
	}
	return env, err
}

// endToEnd turns a run's samples into the end-to-end metrics, the
// ungated extras (info) and the per-query medians. Times are taken
// over the samples the gauge found the machine quiet for; counts of
// allocations and bytes are exact and taken over everything.
func endToEnd(g *gauge, setupS []float64, ws *writeSide, rs *readSide, info map[string]float64) (map[string]float64, map[string]float64) {
	passes := rs.steady(g)
	var passMs []float64
	var queries int
	lat := make([][]float64, len(rs.groups))
	for _, p := range passes {
		passMs = append(passMs, p.ms)
		queries += len(p.lat)
		for _, l := range p.lat {
			lat[l.group] = append(lat[l.group], l.us)
		}
	}
	perQuery := map[string]float64{}
	var medians []float64
	for gi, name := range rs.groups {
		if len(lat[gi]) > 0 {
			perQuery[name] = median(lat[gi])
			medians = append(medians, perQuery[name])
		}
	}
	commitMs := fastest(ws.commitMs)
	var loadMBps []float64
	for pos, t := range commitMs {
		loadMBps = append(loadMBps, ws.docMB[pos]/(t/1000))
	}
	values := map[string]float64{
		"setup_s":                median(setupS),
		"queries_per_s":          float64(queries) / (sum(passMs) / 1000),
		"pass_ms_p50":            median(passMs),
		"query_geomean_us":       geomean(medians),
		"allocs_per_query":       float64(rs.mallocs) / float64(rs.queries),
		"alloc_kb_per_query":     float64(rs.bytes) / 1024 / float64(rs.queries),
		"heap_mb_loaded":         median(ws.heapMB),
		"load_mb_per_s":          median(loadMBps),
		"commit_ms_p50":          median(commitMs),
		"recovery_s":             median(fastest(ws.recoveryS)),
		"wal_bytes_per_xml_byte": float64(ws.walBytes) / float64(ws.xmlBytes),
	}
	info["pass_ms_tail"], info["pass_ms_tail_pct"] = tail(rs.passMs())
	info["commit_ms_tail"], info["commit_ms_tail_pct"] = tail(flatten(ws.commitMs))
	// Not gated: a checkpoint is a few tens of milliseconds of fsync,
	// which the sandbox's disk moved by a third between runs.
	info["checkpoint_s_total"] = sum(fastest(ws.ckptS))
	info["n_passes"] = float64(len(rs.passes))
	info["n_passes_steady"] = float64(len(passes))
	info["n_queries"] = float64(rs.queries)
	info["n_instances"] = float64(len(ws.commitMs))
	info["n_commits"] = float64(len(flatten(ws.commitMs)))
	info["n_setups"] = float64(len(setupS))
	info["xml_mb"] = float64(ws.xmlBytes) / 1e6
	if g != nil {
		info["gauge_quiet_ms"] = g.quietLevel()
		info["gauge_p50_ms"] = median(g.readings)
	}
	return values, perQuery
}

func flatten(xs [][]float64) []float64 {
	var out []float64
	for _, x := range xs {
		out = append(out, x...)
	}
	return out
}

// steady returns the passes the timing metrics are taken over. Read
// workloads: the passes timed on a quiet machine (all of them when
// fewer than minQuiet were). load_durable: one cycle's rounds, each
// time the fastest over the cycles at that position (see fastest).
func (r *readSide) steady(g *gauge) []passSample {
	if r.cycleLen > 0 {
		out := make([]passSample, r.cycleLen)
		for pos := range out {
			var ms []float64
			lat := make([][]float64, len(r.groups))
			for i := pos; i < len(r.passes); i += r.cycleLen {
				ms = append(ms, r.passes[i].ms)
				for _, l := range r.passes[i].lat {
					lat[l.group] = append(lat[l.group], l.us)
				}
			}
			out[pos].ms = quantile(ms, 0)
			for gi, l := range lat {
				out[pos].lat = append(out[pos].lat, latency{gi, quantile(l, 0)})
			}
		}
		return out
	}
	level := g.quietLevel()
	var kept []passSample
	for _, p := range r.passes {
		if g.quiet(level, p.before, p.after) {
			kept = append(kept, p)
		}
	}
	if len(kept) < minQuiet {
		return r.passes
	}
	return kept
}

// passMs returns every pass's wall time, disturbed or not.
func (r *readSide) passMs() []float64 {
	out := make([]float64, len(r.passes))
	for i, p := range r.passes {
		out[i] = p.ms
	}
	return out
}

// report prints a result for a person: every metric by name with its
// unit, then the ungated extras.
func report(w io.Writer, r *result, defs []metricDef) {
	fmt.Fprintf(w, "== %s seed=%d trace=%v: attempted=%d failed=%d\n", r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed)
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "%-38s %14.4f %s\n", d.Name, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(r.Info) {
		fmt.Fprintf(w, "  (info) %-29s %14.4f\n", k, r.Info[k])
	}
	for _, msg := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", msg)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
