package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/xpath"
	"repro/xrel"
)

// Tracing is done from here, around the calls into each layer: nothing
// inside the program is instrumented. A traced query is the sequence
// of public calls xrel.Store.QueryContext makes, one span each.

// span is one call into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the span that caused it, -1 for a request's root
	Req    int    `json:"req"`    // spans of one request share it
}

// maxSpans stops a traced phase early, so the trace of a workload
// with cheap queries stays a few tens of megabytes.
const maxSpans = 300000

type tracer struct {
	t0    time.Time
	spans []span
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: t.req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// root begins a new request.
func (t *tracer) root(name string) int {
	t.req++
	return t.begin(name, -1)
}

func (t *tracer) full() bool { return len(t.spans) >= maxSpans }

func (t *tracer) write(dir, workload string) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// Span names. A compile span is renamed once the plan cache's miss
// counter says which kind it was.
const (
	spanQuery       = "query"
	spanParse       = "xpath.parse"
	spanTranslate   = "core.translate" // nests one render of the statement
	spanRender      = "sqlast.render"
	spanCompileHit  = "engine.compile.hit"  // render + plan-cache lookup
	spanCompileMiss = "engine.compile.miss" // render + plan, estimate, order joins, lower
	spanExec        = "engine.exec"         // plan-cache lookup + run
	spanMaterialise = "xrel.materialise"

	spanLoad       = "load"
	spanXMLParse   = "xmltree.parse"
	spanLoadStore  = "shred.load.durable"
	spanLoadMemory = "shred.load.memory"
	spanCheckpoint = "engine.checkpoint"
	spanRecover    = "recover"
	spanOpen       = "engine.open"
	spanReattach   = "shred.reattach"
)

// translationCounts sums what the translator emitted, per query.
type translationCounts struct {
	queries, selects, joins, pathFilters, sqlBytes int
}

// tracedQuery answers one query on a layer store as xrel.QueryContext
// would, with a span around each call.
func tracedQuery(t *tracer, ls *layerStore, xp string, tc *translationCounts) ([]xrel.Node, error) {
	root := t.root(spanQuery)
	defer t.end(root)

	s := t.begin(spanParse, root)
	e, err := xpath.Parse(xp)
	t.end(s)
	if err != nil {
		return nil, err
	}

	s = t.begin(spanTranslate, root)
	tr, err := ls.tr.TranslateExpr(e)
	t.end(s)
	if err != nil {
		return nil, err
	}

	// PrepareStmt only renders the statement to form the plan-cache
	// key, which the engine's Run entry points do on every call.
	s = t.begin(spanRender, root)
	prep := ls.db.PrepareStmt(tr.Stmt)
	t.end(s)

	_, miss0 := ls.db.PlanCacheStats()
	s = t.begin(spanCompileHit, root)
	_, err = ls.db.OperatorCount(tr.Stmt)
	t.end(s)
	if err != nil {
		return nil, err
	}
	if _, miss1 := ls.db.PlanCacheStats(); miss1 > miss0 {
		t.spans[s].Name = spanCompileMiss
	}

	s = t.begin(spanExec, root)
	res, err := prep.RunWithOptionsContext(nil, engine.ExecOptions{})
	t.end(s)
	if err != nil {
		return nil, err
	}

	s = t.begin(spanMaterialise, root)
	nodes := materialise(res)
	t.end(s)

	tc.queries++
	tc.selects += tr.Selects
	tc.joins += tr.Joins
	tc.pathFilters += countPathFilters(tr.SQL)
	tc.sqlBytes += len(tr.SQL)
	return nodes, nil
}

// spanTotals sums span durations by name, in microseconds.
type spanTotals struct {
	us map[string]float64
	n  map[string]int
}

func totals(spans []span) spanTotals {
	st := spanTotals{us: map[string]float64{}, n: map[string]int{}}
	for _, s := range spans {
		st.us[s.Name] += float64(s.End-s.Start) / 1e3
		st.n[s.Name]++
	}
	return st
}

func (st spanTotals) mean(name string) float64 {
	if st.n[name] == 0 {
		return 0
	}
	return st.us[name] / float64(st.n[name])
}

// queryLayers fills in the per-layer metrics of the read path from
// the query spans of the measured passes; compile misses are taken
// from every span recorded, the warm-up pass included, because a warm
// workload misses only there.
func queryLayers(measured, all spanTotals, tc translationCounts, layer map[string]float64) {
	st := measured
	if st.n[spanQuery] == 0 {
		return
	}
	render := st.mean(spanRender)
	layer["xpath.parse_us"] = st.mean(spanParse)
	layer["core.translate_us"] = nonNegative(st.mean(spanTranslate) - render)
	layer["sqlast.render_us"] = render
	layer["engine.compile_miss_us"] = nonNegative(all.mean(spanCompileMiss) - render)
	layer["engine.cache_lookup_us"] = nonNegative(st.mean(spanCompileHit) - render)
	layer["engine.exec_us"] = st.mean(spanExec)
	layer["xrel.materialise_us"] = st.mean(spanMaterialise)
	layer["engine.plan_cache_hit_rate"] = float64(st.n[spanCompileHit]) / float64(st.n[spanCompileHit]+st.n[spanCompileMiss])
	frontend := st.us[spanParse] + st.us[spanTranslate] + st.us[spanRender] + st.us[spanCompileHit] + st.us[spanCompileMiss]
	backend := st.us[spanExec] + st.us[spanMaterialise]
	layer["frontend.share"] = frontend / (frontend + backend)
	q := float64(tc.queries)
	layer["core.selects_per_query"] = float64(tc.selects) / q
	layer["core.joins_per_query"] = float64(tc.joins) / q
	layer["core.pathfilters_per_query"] = float64(tc.pathFilters) / q
	layer["sqlast.sql_bytes_per_query"] = float64(tc.sqlBytes) / q
}

// callsMs is the time a pass's spans account for as store.Query would
// spend it: the request spans, less the one render per query the
// traced sequence makes beyond store.Query's two.
func callsMs(spans []span) float64 {
	var ns int64
	for _, s := range spans {
		switch s.Name {
		case spanQuery:
			ns += s.End - s.Start
		case spanRender:
			ns -= s.End - s.Start
		}
	}
	return float64(ns) / 1e6
}

func nonNegative(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}
