package main

// metricDef names one metric the benchmark reports. BENCHMARK.json
// carries the same lists; smoke_test.go fails when they drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndMetrics are measured with tracing off, and every workload
// reports every one. The read workloads (fig3_warm, fig3_edge,
// adhoc_cold) take the write-path metrics while they set up, which
// commits their documents through the WAL, checkpoints, closes and
// recovers; load_durable takes the read-path metrics from its read
// rounds. README.md has the table, and its "Steadiness" section the
// quartile spreads over ten seeds the bounds were set from.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"pass_ms_p50", "ms", "lower", 0.25},
	{"query_geomean_us", "us", "lower", 0.25},
	{"allocs_per_query", "count", "lower", 0.15},
	{"alloc_kb_per_query", "KB", "lower", 0.15},
	{"heap_mb_loaded", "MB", "lower", 0.05},
	{"load_mb_per_s", "MB/s", "higher", 0.25},
	{"commit_ms_p50", "ms", "lower", 0.25},
	{"recovery_s", "s", "lower", 0.25},
	{"wal_bytes_per_xml_byte", "B/B", "lower", 0.01},
}

// perLayerMetrics come from the traced run; a layer that does no work
// on a workload reports 0 there.
var perLayerMetrics = []metricDef{
	{Name: "xpath.parse_us", Unit: "us", Better: "lower"},
	{Name: "core.translate_us", Unit: "us", Better: "lower"},
	{Name: "core.selects_per_query", Unit: "count", Better: "lower"},
	{Name: "core.joins_per_query", Unit: "count", Better: "lower"},
	{Name: "core.pathfilters_per_query", Unit: "count", Better: "lower"},
	{Name: "sqlast.render_us", Unit: "us", Better: "lower"},
	{Name: "sqlast.sql_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "frontend.share", Unit: "ratio", Better: "lower"},
	{Name: "engine.compile_miss_us", Unit: "us", Better: "lower"},
	{Name: "engine.cache_lookup_us", Unit: "us", Better: "lower"},
	{Name: "engine.plan_cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "engine.replans", Unit: "count", Better: "lower"},
	{Name: "engine.exec_us", Unit: "us", Better: "lower"},
	{Name: "engine.op.scan_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.op.filter_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.op.project_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.op.distinct_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.op.sort_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.op.subplan_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.op.union_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.rows_examined", Unit: "count", Better: "lower"},
	{Name: "engine.index_probes", Unit: "count", Better: "lower"},
	{Name: "engine.rows_examined_per_result", Unit: "ratio", Better: "lower"},
	{Name: "engine.regex_filter_rows", Unit: "count", Better: "lower"},
	{Name: "engine.peak_stmt_mem_bytes", Unit: "B", Better: "lower"},
	{Name: "engine.pattern_cache_size", Unit: "count", Better: "lower"},
	{Name: "pathre.compile_us", Unit: "us", Better: "lower"},
	{Name: "pathre.match_ns_per_path", Unit: "ns", Better: "lower"},
	{Name: "pathre.patterns_distinct", Unit: "count", Better: "lower"},
	{Name: "xrel.materialise_us", Unit: "us", Better: "lower"},
	{Name: "xrel.query_overhead_us", Unit: "us", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "xmltree.parse_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "shred.load_ms", Unit: "ms", Better: "lower"},
	{Name: "shred.rows_per_doc", Unit: "count", Better: "lower"},
	{Name: "shred.paths_distinct", Unit: "count", Better: "lower"},
	{Name: "shred.reattach_ms", Unit: "ms", Better: "lower"},
	{Name: "synopsis.build_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "wal.commit_residual_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.sync_us", Unit: "us", Better: "lower"},
	{Name: "wal.records", Unit: "count", Better: "lower"},
	{Name: "wal.record_kb_p50", Unit: "KB", Better: "lower"},
	{Name: "engine.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.checkpoint_bytes_per_xml_byte", Unit: "B/B", Better: "lower"},
	{Name: "engine.recovery_open_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.replan_after_write_us", Unit: "us", Better: "lower"},
	{Name: "trace.pass_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"fig3_warm", "fig3_edge", "adhoc_cold", "load_durable"}
