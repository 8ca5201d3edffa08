package main

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Per-operator numbers come from the text EXPLAIN ANALYZE renders: one
// line per operator, "<indent><label> [loops= in= out= probes=
// (pattern-hits=) (mem=NB) time=D]", subplans nested two and four
// columns under the operator that evaluates them, union branches under
// a "union branch N:" header, and a closing "total: rows= peak-mem="
// line. The engine's explain_stability_test.go pins the format.

// opLine is one parsed operator line.
type opLine struct {
	indent int
	kind   string // scan, filter, project, distinct, sort, subplan, union
	regex  bool   // a filter that evaluates REGEXP_LIKE
	in     int64
	out    int64
	probes int64
	time   time.Duration
}

// opSums accumulates operator statistics over statements.
type opSums struct {
	selfMs       map[string]float64 // by kind
	rowsExamined int64              // rows scans produced
	probes       int64
	regexRows    int64 // rows entering REGEXP_LIKE filters
	resultRows   int64
	peakMem      int64
}

func newOpSums() *opSums { return &opSums{selfMs: map[string]float64{}} }

func opKind(label string) string {
	switch {
	case strings.HasSuffix(label, " subplan"):
		return "subplan"
	case strings.HasPrefix(label, "scan "):
		return "scan"
	case strings.HasPrefix(label, "filter "), strings.HasPrefix(label, "prefilter:"):
		return "filter"
	case strings.HasPrefix(label, "project:"), label == "count(*)":
		return "project"
	case label == "distinct":
		return "distinct"
	case strings.HasPrefix(label, "sort:"), strings.HasPrefix(label, "union sort:"):
		return "sort"
	case label == "union distinct":
		return "union"
	}
	return ""
}

// parseExplain splits EXPLAIN ANALYZE text into operator lines and
// the total line's result rows and peak memory.
func parseExplain(text string) (ops []opLine, rows, peakMem int64, err error) {
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		trimmed := strings.TrimLeft(line, " ")
		if strings.HasPrefix(trimmed, "total: ") {
			if _, err := fmt.Sscanf(trimmed, "total: rows=%d peak-mem=%dB", &rows, &peakMem); err != nil {
				return nil, 0, 0, fmt.Errorf("explain: total line %q: %w", line, err)
			}
			continue
		}
		if strings.HasPrefix(trimmed, "union branch ") {
			continue
		}
		// A filter's label can itself hold brackets (a pattern's
		// character class), so the stats are the last bracket pair.
		open := strings.LastIndex(trimmed, " [loops=")
		if open < 0 {
			return nil, 0, 0, fmt.Errorf("explain: no statistics in %q", line)
		}
		shut := strings.Index(trimmed[open:], "]")
		if shut < 0 {
			return nil, 0, 0, fmt.Errorf("explain: unclosed statistics in %q", line)
		}
		label := trimmed[:open]
		op := opLine{indent: len(line) - len(trimmed), kind: opKind(label)}
		if op.kind == "" {
			return nil, 0, 0, fmt.Errorf("explain: unknown operator %q", label)
		}
		op.regex = op.kind == "filter" && strings.Contains(label, "REGEXP_LIKE(")
		for _, f := range strings.Fields(trimmed[open+2 : open+shut]) {
			k, v, _ := strings.Cut(f, "=")
			switch k {
			case "in":
				op.in, err = strconv.ParseInt(v, 10, 64)
			case "out":
				op.out, err = strconv.ParseInt(v, 10, 64)
			case "probes":
				op.probes, err = strconv.ParseInt(v, 10, 64)
			case "time":
				op.time, err = time.ParseDuration(v)
			}
			if err != nil {
				return nil, 0, 0, fmt.Errorf("explain: field %q in %q: %w", f, line, err)
			}
		}
		ops = append(ops, op)
	}
	return ops, rows, peakMem, nil
}

// add folds one statement's EXPLAIN ANALYZE text into the sums.
//
// Operator times are inclusive, so self time subtracts what the
// operator drives: a scan times its step's filter and everything
// downstream (the next scan, or the projection after the last one); a
// filter or projection times the subplans nested under it; a subplan
// boundary times its pipeline, which its first scan covers.
func (s *opSums) add(text string) error {
	ops, rows, peakMem, err := parseExplain(text)
	if err != nil {
		return err
	}
	s.resultRows += rows
	if peakMem > s.peakMem {
		s.peakMem = peakMem
	}
	for i, op := range ops {
		self := op.time
		switch op.kind {
		case "scan":
			s.rowsExamined += op.out
			// Its pipeline continues at the same indent: the step's
			// filter, if it has one, then the next scan or the projection.
			sawFilter := false
			for j := i + 1; j < len(ops) && ops[j].indent >= op.indent; j++ {
				if ops[j].indent != op.indent {
					continue
				}
				self -= ops[j].time
				if ops[j].kind != "filter" || sawFilter {
					break
				}
				sawFilter = true
			}
		case "filter", "project":
			for j := i + 1; j < len(ops) && ops[j].indent > op.indent; j++ {
				if ops[j].indent == op.indent+2 {
					self -= ops[j].time
				}
			}
		case "subplan":
			for j := i + 1; j < len(ops) && ops[j].indent > op.indent; j++ {
				if ops[j].indent == op.indent+2 && ops[j].kind == "scan" {
					self -= ops[j].time
					break
				}
			}
		}
		if op.regex {
			s.regexRows += op.in
		}
		s.probes += op.probes
		if self > 0 {
			s.selfMs[op.kind] += ms(self)
		}
	}
	return nil
}

// fill writes the sums as per-pass metrics.
func (s *opSums) fill(layer map[string]float64) {
	for _, k := range []string{"scan", "filter", "project", "distinct", "sort", "subplan", "union"} {
		layer["engine.op."+k+"_self_ms"] = s.selfMs[k]
	}
	layer["engine.rows_examined"] = float64(s.rowsExamined)
	layer["engine.index_probes"] = float64(s.probes)
	layer["engine.regex_filter_rows"] = float64(s.regexRows)
	layer["engine.peak_stmt_mem_bytes"] = float64(s.peakMem)
	if s.resultRows > 0 {
		layer["engine.rows_examined_per_result"] = float64(s.rowsExamined) / float64(s.resultRows)
	}
}

// pathFilterRE finds the path patterns of a translated statement: the
// translator anchors every one, and none holds a quote.
var pathFilterRE = regexp.MustCompile(`'(\^[^']*\$)'\)`)

func countPathFilters(sql string) int { return strings.Count(sql, "REGEXP_LIKE(") }

func pathPatterns(sql string) []string {
	var out []string
	for _, m := range pathFilterRE.FindAllStringSubmatch(sql, -1) {
		out = append(out, m[1])
	}
	return out
}
