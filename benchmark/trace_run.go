package main

import (
	"bytes"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/pathre"
	"repro/internal/synopsis"
	"repro/internal/wal"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// runTraced is the --trace 1 run of a workload: one set-up, a short
// untraced phase for reference, then the same operations traced. Its
// metrics are the per-layer ones; end-to-end numbers never come from
// here.
func runTraced(cfg config, name string) (*result, error) {
	tl := &tally{}
	t := newTracer()
	layer := map[string]float64{}
	for _, d := range perLayerMetrics {
		layer[d.Name] = 0
	}
	var inputs inputFingerprint
	var err error
	if name == "load_durable" {
		inputs, err = traceLoad(cfg, t, layer, tl)
	} else {
		inputs, err = traceRead(cfg, name, t, layer, tl)
	}
	if err != nil {
		return nil, err
	}
	if err := t.write(cfg.OutDir, name); err != nil {
		return nil, err
	}
	res := newResult(cfg, name, tl, inputs)
	res.Info["n_spans"] = float64(len(t.spans))
	return res, res.set(perLayerMetrics, layer)
}

// traceRead traces a read workload. The traced queries run on twins
// of the stores, assembled from the layers so that each layer can be
// called on its own, and loaded and recovered the way the stores were.
func traceRead(cfg config, name string, t *tracer, layer map[string]float64, tl *tally) (inputFingerprint, error) {
	g := newGauge()
	env, err := setupRead(cfg, name, &writeSide{}, tl)
	if err != nil {
		return inputFingerprint{}, err
	}
	defer env.close(tl)
	var twins []*layerStore
	for _, doc := range env.docs {
		ls, dir, err := recoveredLayers(cfg, env.mapping, doc)
		if dir != "" {
			env.dirs = append(env.dirs, dir)
		}
		if err != nil {
			return env.inputs, err
		}
		env.stores = append(env.stores, ls) // closed and removed with the rest
		twins = append(twins, ls)
	}

	untraced := newReadSide(env.groups)
	env.timed(cfg, g, cfg.Seconds/4, tl, untraced)
	untracedMs := median(untraced.passMs())

	var tc translationCounts
	tracedPass := func() {
		for i := 0; i < env.passLen; i++ {
			op := env.next()
			nodes, err := tracedQuery(t, twins[op.doc], op.xpath, &tc)
			tl.nodes(op.xpath, nodes, op.want, err)
		}
	}
	tracedPass() // warm-up: the twins see every warm statement for the first time
	warm := len(t.spans)
	var passMs, calls []float64
	replans := adaptiveReplans(twins)
	mem := startMem()
	t0 := time.Now()
	for n := 0; !done(cfg, n, 3, t0, cfg.Seconds/2) && !t.full(); n++ {
		collect()
		from := len(t.spans)
		p0 := time.Now()
		tracedPass()
		passMs = append(passMs, ms(time.Since(p0)))
		calls = append(calls, callsMs(t.spans[from:]))
	}
	_, _, gcCycles, gcPause := mem.stop()
	layer["runtime.gc_cycles"] = float64(gcCycles)
	layer["runtime.gc_pause_ms_total"] = ms(gcPause)
	layer["engine.replans"] = float64(adaptiveReplans(twins) - replans)
	layer["trace.pass_ms_p50"] = median(passMs)
	layer["trace.overhead_share"] = median(passMs)/untracedMs - 1
	// What store.Query costs beyond the calls it is made of.
	layer["xrel.query_overhead_us"] = (untracedMs - median(calls)) * 1e3 / float64(env.passLen)
	queryLayers(totals(t.spans[warm:]), totals(t.spans), tc, layer)

	// One more pass under EXPLAIN ANALYZE for the operators' numbers.
	ops := newOpSums()
	patterns := map[string]bool{}
	for i := 0; i < env.passLen; i++ {
		op := env.next()
		ls := twins[op.doc]
		tr, err := ls.tr.Translate(op.xpath)
		if err != nil {
			return env.inputs, err
		}
		text, err := ls.db.ExplainAnalyzeWithOptions(tr.Stmt, engine.ExecOptions{})
		if err != nil {
			return env.inputs, err
		}
		if err := ops.add(text); err != nil {
			return env.inputs, err
		}
		for _, p := range pathPatterns(tr.SQL) {
			patterns[p] = true
		}
	}
	ops.fill(layer)
	var paths []string
	for _, doc := range env.docs {
		paths = append(paths, doc.Tree.DistinctPaths()...)
	}
	patternLayers(patterns, paths, layer)
	return env.inputs, nil
}

// recoveredLayers is durableLoad for a layer store, untimed.
func recoveredLayers(cfg config, mapping string, doc *document) (*layerStore, string, error) {
	dir, err := os.MkdirTemp(cfg.OutDir, "store-")
	if err != nil {
		return nil, "", err
	}
	ls, err := openLayers(mapping, dir, doc.Schema)
	if err != nil {
		return nil, dir, err
	}
	err = ls.LoadXML(doc.XML)
	if err == nil {
		err = ls.Checkpoint()
	}
	if cerr := ls.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, dir, err
	}
	ls, err = openLayers(mapping, dir, doc.Schema)
	return ls, dir, err
}

func adaptiveReplans(stores []*layerStore) uint64 {
	var n uint64
	for _, ls := range stores {
		n += ls.db.AdaptiveReplans()
	}
	return n
}

// patternLayers measures the pathre layer on its own: compiling each
// distinct pattern the translator emitted, and matching each against
// the documents' distinct root-to-node paths, which is what a path
// filter does per paths row.
func patternLayers(patterns map[string]bool, paths []string, layer map[string]float64) {
	layer["pathre.patterns_distinct"] = float64(len(patterns))
	layer["engine.pattern_cache_size"] = float64(engine.PatternCacheSize())
	var compileUs, matchNs []float64
	for _, p := range sortedKeys(patterns) {
		t0 := time.Now()
		//xvet:ignore regexploop -- the compile is what this loop times, once per distinct pattern
		re, err := pathre.Compile(p)
		if err != nil {
			continue // outside the pathre subset: the engine falls back to regexp
		}
		match := re.MatchString
		//xvet:ignore regexploop -- part of the same timed compile
		if dfa, err := pathre.CompileDFA(re); err == nil {
			match = dfa.MatchString
		}
		compileUs = append(compileUs, us(time.Since(t0)))
		if len(paths) == 0 {
			continue
		}
		t0 = time.Now()
		for _, path := range paths {
			match(path)
		}
		matchNs = append(matchNs, float64(time.Since(t0))/float64(len(paths)))
	}
	layer["pathre.compile_us"] = mean(compileUs)
	layer["pathre.match_ns_per_path"] = mean(matchNs)
}

// traceLoad traces load_durable: one untraced cycle for reference,
// then one cycle on a layer store with a span around the XML parse,
// the durable load, the same load on an in-memory twin (no WAL), each
// checkpoint and each step of recovery; then the WAL and the synopsis
// builder on their own, fed what the cycle wrote.
func traceLoad(cfg config, t *tracer, layer map[string]float64, tl *tally) (inputFingerprint, error) {
	env, err := setupLoad(cfg)
	if err != nil {
		return inputFingerprint{}, err
	}
	untraced := newReadSide(env.groups)
	if err := env.cycle(cfg, 0, &writeSide{}, untraced, tl); err != nil {
		return env.inputs, err
	}

	dir, err := os.MkdirTemp(cfg.OutDir, "store-")
	if err != nil {
		return env.inputs, err
	}
	defer func() { tl.op("remove "+dir, os.RemoveAll(dir)) }()
	schema := xmark.Schema()
	ls, err := openLayers(mappingPPF, dir, schema)
	if err != nil {
		return env.inputs, err
	}
	twin, err := openLayers(mappingPPF, "", schema)
	if err != nil {
		return env.inputs, err
	}
	// Creating the relational schema logged one small record per
	// relation and index; only what the loads append is of interest.
	ddlRecords := 0
	if err := wal.Scan(filepath.Join(dir, walFile), func(wal.Record) error { ddlRecords++; return nil }); err != nil {
		return env.inputs, err
	}

	var tc translationCounts
	var passMs, recordKB, residualMs []float64
	var xmlBytes, ckptBytes int64
	want := make([][]int64, len(readRound))
	var base int64
	round := func(ls *layerStore, traced bool) {
		if traced {
			collect()
		}
		p0 := time.Now()
		for qi, q := range readRound {
			if traced {
				nodes, err := tracedQuery(t, ls, q.XPath, &tc)
				tl.nodes(q.XPath, nodes, want[qi], err)
			} else {
				nodes, err := ls.Query(q.XPath)
				tl.nodes(q.XPath, nodes, want[qi], err)
			}
		}
		if traced {
			passMs = append(passMs, ms(time.Since(p0)))
		}
	}
	mem := startMem()
	half := (len(env.docs) + 1) / 2
	for i, doc := range env.docs {
		root := t.root(spanLoad)
		s := t.begin(spanXMLParse, root)
		tree, err := xmltree.Parse(bytes.NewReader(doc.XML))
		t.end(s)
		if err != nil {
			return env.inputs, err
		}
		// The same tree goes into an in-memory twin: the load without
		// the WAL. Which of the two goes first alternates, so that
		// neither always finds the tree warm.
		var durable, memory time.Duration
		loadTwin := func() {
			s := t.root(spanLoadMemory)
			_, err := twin.load(tree)
			t.end(s)
			memory = time.Duration(t.spans[s].End - t.spans[s].Start)
			tl.op("load in memory", err)
		}
		if i%2 == 1 {
			loadTwin()
		}
		s = t.begin(spanLoadStore, root)
		_, err = ls.load(tree)
		t.end(s)
		t.end(root)
		durable = time.Duration(t.spans[s].End - t.spans[s].Start)
		tl.op("load", err)
		if i%2 == 0 {
			loadTwin()
		}
		residualMs = append(residualMs, ms(durable-memory))
		xmlBytes += int64(len(doc.XML))
		for qi := range want {
			for _, id := range env.want[i][qi] {
				want[qi] = append(want[qi], base+id)
			}
		}
		base += env.bases[i]
		if (i+1)%roundEvery == 0 || i+1 == len(env.docs) {
			round(ls, true)
		}
		if i+1 == half || i+1 == len(env.docs) {
			err := wal.Scan(filepath.Join(dir, walFile), func(rec wal.Record) error {
				if ddlRecords > 0 {
					ddlRecords--
					return nil
				}
				recordKB = append(recordKB, float64(len(rec.Payload))/1024)
				return nil
			})
			if err != nil {
				return env.inputs, err
			}
			s = t.root(spanCheckpoint)
			err = ls.Checkpoint()
			t.end(s)
			tl.op("checkpoint", err)
			if ckptBytes, err = fileSize(dir, checkpointFile); err != nil {
				return env.inputs, err
			}
		}
	}
	_, _, gcCycles, gcPause := mem.stop()

	// What the shredder stored, and the synopsis builder on its own,
	// fed the largest relation's rows the way the engine feeds it.
	var rows int
	var largest [][]engine.Value
	for _, name := range ls.db.TableNames() {
		r := ls.db.Table(name).Rows()
		rows += len(r)
		if len(r) > len(largest) {
			largest = r
		}
	}
	layer["shred.rows_per_doc"] = float64(rows) / float64(len(env.docs))
	layer["shred.paths_distinct"] = float64(len(ls.db.Table("paths").Rows()))
	t0 := time.Now()
	b := synopsis.Extend(synopsis.Empty())
	for _, row := range largest {
		for i, v := range row {
			switch v.Kind {
			case engine.KNull:
				b.Null(i)
			case engine.KInt, engine.KBool:
				b.Int(i, v.I)
			case engine.KFloat:
				b.Float(i, v.F)
			case engine.KText:
				b.Text(i, v.S)
			case engine.KBytes:
				b.Bytes(i, v.B)
			}
		}
		b.Row()
	}
	b.Seal()
	layer["synopsis.build_ns_per_row"] = float64(time.Since(t0)) / float64(len(largest))

	if err := ls.Close(); err != nil {
		return env.inputs, err
	}
	for i := 0; i < reopenCount; i++ {
		root := t.root(spanRecover)
		s := t.begin(spanOpen, root)
		db, err := engine.Open(dir)
		t.end(s)
		if err != nil {
			return env.inputs, err
		}
		s = t.begin(spanReattach, root)
		ls, err = attachLayers(mappingPPF, db, schema)
		t.end(s)
		t.end(root)
		if err != nil {
			return env.inputs, err
		}
		round(ls, false)
		if err := ls.Close(); err != nil {
			return env.inputs, err
		}
	}

	st := totals(t.spans)
	queryLayers(st, st, tc, layer)
	layer["engine.replan_after_write_us"] = layer["engine.compile_miss_us"]
	layer["runtime.gc_cycles"] = float64(gcCycles)
	layer["runtime.gc_pause_ms_total"] = ms(gcPause)
	layer["trace.pass_ms_p50"] = median(passMs)
	layer["trace.overhead_share"] = median(passMs)/median(untraced.passMs()) - 1
	layer["xmltree.parse_mb_per_s"] = float64(xmlBytes) / st.us[spanXMLParse]
	layer["shred.load_ms"] = st.mean(spanLoadMemory) / 1e3
	layer["wal.commit_residual_ms"] = median(residualMs)
	layer["engine.checkpoint_ms"] = st.mean(spanCheckpoint) / 1e3
	layer["engine.checkpoint_bytes_per_xml_byte"] = float64(ckptBytes) / float64(xmlBytes)
	layer["engine.recovery_open_ms"] = st.mean(spanOpen) / 1e3
	layer["shred.reattach_ms"] = st.mean(spanReattach) / 1e3
	layer["wal.records"] = float64(len(recordKB))
	layer["wal.record_kb_p50"] = median(recordKB)
	return env.inputs, walLayers(cfg, recordKB, layer)
}

// walLayers measures the WAL on its own: a scratch log is appended
// and synced records of the sizes the cycle's log held.
func walLayers(cfg config, recordKB []float64, layer map[string]float64) (err error) {
	dir, err := os.MkdirTemp(cfg.OutDir, "wal-")
	if err != nil {
		return err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}()
	log, err := wal.Open(filepath.Join(dir, walFile), func(wal.Record) error { return nil })
	if err != nil {
		return err
	}
	var appendUs, syncUs []float64
	for _, kb := range recordKB {
		payload := make([]byte, int(kb*1024))
		t0 := time.Now()
		_, err := log.Append(payload)
		t1 := time.Now()
		if err == nil {
			err = log.Sync()
		}
		if err != nil {
			_ = log.Close() // the append or sync error is the one to report
			return err
		}
		appendUs = append(appendUs, us(t1.Sub(t0)))
		syncUs = append(syncUs, us(time.Since(t1)))
	}
	layer["wal.append_us"] = median(appendUs)
	layer["wal.sync_us"] = median(syncUs)
	return log.Close()
}
