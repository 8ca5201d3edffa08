package engine

import (
	"fmt"
	"strings"
	"time"
)

// OpStats is the per-operator instrumentation block of the physical
// plan: every operator node of a lowered statement owns one slot in
// the statement's stats frame. Counters are plain int64s — NOT
// atomics — because frames are sharded per morsel worker and merged
// after the workers join, so no two goroutines ever touch the same
// slot. The opstats analyzer (internal/analysis) enforces that the
// fields below are mutated only through the methods in this file,
// keeping that single-writer discipline mechanical.
type OpStats struct {
	loops       int64 // times the operator was (re)opened / rebound
	rowsIn      int64 // rows arriving at the operator
	rowsOut     int64 // rows the operator emitted downstream
	probes      int64 // index / hash-table probes issued
	patternHits int64 // REGEXP_LIKE matchers served from the pattern cache
	bytes       int64 // bytes this operator charged to the resource governor
	nanos       int64 // wall time attributed to the operator (EXPLAIN ANALYZE runs only)
}

// open records one (re)opening of the operator: a top-level plan
// opens each operator once, a nested-loop inner step once per outer
// row, a correlated subplan once per evaluation.
func (s *OpStats) open() { s.loops++ }

// rowIn records one row arriving at the operator.
func (s *OpStats) rowIn() { s.rowsIn++ }

// rowsInN records n rows arriving at once (batch operators: sort,
// deferred dedup).
func (s *OpStats) rowsInN(n int64) { s.rowsIn += n }

// rowOut records one row emitted downstream.
func (s *OpStats) rowOut() { s.rowsOut++ }

// rowsOutN records n rows emitted at once (batch operators and the
// driving scan's materialized id list).
func (s *OpStats) rowsOutN(n int64) { s.rowsOut += n }

// probe records one index or hash-table probe.
func (s *OpStats) probe() { s.probes++ }

// patternHit records one REGEXP_LIKE matcher served from the shared
// pattern cache during this operator's expression evaluation.
func (s *OpStats) patternHit() { s.patternHits++ }

// charge records bytes this operator charged to the statement's
// resource governor (hash-join builds, DISTINCT sets, union dedup).
func (s *OpStats) charge(n int64) { s.bytes += n }

// addTime accumulates wall time attributed to the operator. Only
// EXPLAIN ANALYZE executions measure time; plain runs never read the
// clock per operator.
func (s *OpStats) addTime(d time.Duration) { s.nanos += int64(d) }

// setRowFlow overwrites the loop and row counters with values derived
// at statement end. Per-step filter operators do not count in the hot
// loop: their flow is fully determined by their neighbours (loops and
// rowsIn are the step scan's loops and rowsOut; rowsOut is the next
// scan's loops, or the output operator's rowsIn for the last step), so
// finalizeFrame reconstructs it once per execution instead of the row
// loop paying counter writes per candidate row.
func (s *OpStats) setRowFlow(loops, in, out int64) { s.loops, s.rowsIn, s.rowsOut = loops, in, out }

// merge folds another shard of the same operator's counters into the
// receiver; the morsel executor uses it to combine per-worker
// frames after the workers have joined.
func (s *OpStats) merge(o *OpStats) {
	s.loops += o.loops
	s.rowsIn += o.rowsIn
	s.rowsOut += o.rowsOut
	s.probes += o.probes
	s.patternHits += o.patternHits
	s.bytes += o.bytes
	s.nanos += o.nanos
}

// Read-only accessors, for tests and tooling.

// Loops returns the times the operator was (re)opened.
func (s *OpStats) Loops() int64 { return s.loops }

// RowsIn returns the rows that arrived at the operator.
func (s *OpStats) RowsIn() int64 { return s.rowsIn }

// RowsOut returns the rows the operator emitted.
func (s *OpStats) RowsOut() int64 { return s.rowsOut }

// Probes returns the index/hash probes the operator issued.
func (s *OpStats) Probes() int64 { return s.probes }

// PatternHits returns the pattern-cache hits attributed to the
// operator.
func (s *OpStats) PatternHits() int64 { return s.patternHits }

// Bytes returns the bytes the operator charged to the governor.
func (s *OpStats) Bytes() int64 { return s.bytes }

// Time returns the wall time attributed to the operator (zero unless
// the statement ran under EXPLAIN ANALYZE).
func (s *OpStats) Time() time.Duration { return time.Duration(s.nanos) }

// String renders the stats block the way EXPLAIN ANALYZE prints it.
func (s *OpStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loops=%d in=%d out=%d probes=%d", s.loops, s.rowsIn, s.rowsOut, s.probes)
	if s.patternHits > 0 {
		fmt.Fprintf(&b, " pattern-hits=%d", s.patternHits)
	}
	if s.bytes > 0 {
		fmt.Fprintf(&b, " mem=%dB", s.bytes)
	}
	fmt.Fprintf(&b, " time=%s", time.Duration(s.nanos).Round(time.Microsecond))
	return b.String()
}

// opFrame is one shard of a statement's operator stats: one slot per
// operator node, indexed by opNode.id. The serial executor uses a
// single frame; each morsel worker gets its own and the shards are
// merged once the workers have joined.
type opFrame []OpStats

// mergeFrom folds a worker's shard into the receiver.
func (f opFrame) mergeFrom(w opFrame) {
	for i := range w {
		f[i].merge(&w[i])
	}
}
