package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/native"
	"repro/internal/xmark"
	"repro/xrel"
)

// config is one run's settings. The defaults are the benchmark; only
// smoke_test.go shrinks the sizes.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64 // timed budget of a workload
	Trace    bool
	OutDir   string // results, traces and the stores' temporary directories

	Scale     float64 // XMark and DBLP scale of the read workloads
	DocScale  float64 // XMark scale of a load_durable document
	Docs      int     // documents per load_durable cycle
	PassLen   int     // adhoc_cold queries per pass
	Passes    int     // > 0: this many timed passes or cycles, not Seconds
	SetupReps int     // set-ups per run; setup_s is their median
}

func defaultConfig() config {
	return config{Seconds: 10, OutDir: "benchmark/out",
		Scale: 1, DocScale: 0.02, Docs: 100, PassLen: 1000, SetupReps: 3}
}

// fullSize reports whether the inputs are the ones expected.json pins.
func (c config) fullSize() bool {
	d := defaultConfig()
	return c.Scale == d.Scale && c.DocScale == d.DocScale && c.Docs == d.Docs && c.PassLen == d.PassLen
}

const (
	roundEvery  = 10 // load_durable: commits between read rounds
	reopenCount = 2  // load_durable: OpenPersistent/Close cycles after each cycle's Close
	maxMessages = 5  // failure messages kept per run
)

// tally counts operations and the ones that failed: an error, or a
// node set that differs from the oracle's.
type tally struct {
	attempted, failed int
	messages          []string
}

func (t *tally) fail(format string, args ...interface{}) {
	t.failed++
	if len(t.messages) < maxMessages {
		t.messages = append(t.messages, fmt.Sprintf(format, args...))
	}
}

// op counts one operation that has no result to compare.
func (t *tally) op(what string, err error) {
	t.attempted++
	if err != nil {
		t.fail("%s: %v", what, err)
	}
}

// nodes counts one query and compares its node set with the oracle's.
func (t *tally) nodes(xp string, got []xrel.Node, want []int64, err error) {
	t.attempted++
	switch {
	case err != nil:
		t.fail("%s: %v", xp, err)
	case len(got) != len(want):
		t.fail("%s: %d nodes, oracle has %d", xp, len(got), len(want))
	default:
		for i := range got {
			if got[i].ID != want[i] {
				t.fail("%s: node %d is %d, oracle has %d", xp, i, got[i].ID, want[i])
				return
			}
		}
	}
}

// writeSide holds the write-path samples of a workload: the read
// workloads take them while setting up, load_durable while timed.
// Every set-up, and every load_durable cycle, performs the same
// sequence of operations on the same documents, so the samples are
// kept per instance and position: see fastest.
type writeSide struct {
	commitMs  [][]float64 // one per LoadXML
	ckptS     [][]float64 // one per Checkpoint
	recoveryS [][]float64 // one per reopen
	docMB     []float64   // XML megabytes of the commit at each position
	xmlBytes  int64
	walBytes  int64     // log size before each checkpoint, summed
	heapMB    []float64 // live heap the loaded stores add, per instance
}

// begin starts the samples of a new set-up or cycle.
func (ws *writeSide) begin() {
	ws.commitMs = append(ws.commitMs, nil)
	ws.ckptS = append(ws.ckptS, nil)
	ws.recoveryS = append(ws.recoveryS, nil)
}

func push(instances [][]float64, v float64) {
	i := len(instances) - 1
	instances[i] = append(instances[i], v)
}

// commit records one LoadXML of xmlBytes.
func (ws *writeSide) commit(d time.Duration, xmlBytes int) {
	push(ws.commitMs, ms(d))
	if len(ws.commitMs) == 1 {
		ws.docMB = append(ws.docMB, float64(xmlBytes)/1e6)
	}
	ws.xmlBytes += int64(xmlBytes)
}

// fastest reduces instances of one sequence of operations to one value
// per position in the sequence: the fastest over the instances. What
// disturbs the shared machine only ever slows a sample, and it lasts
// seconds, so it spoils an instance's samples together; of three
// instances all are spoilt at one position far less often than two.
func fastest(instances [][]float64) []float64 {
	var out []float64
	for pos := 0; ; pos++ {
		var at []float64
		for _, inst := range instances {
			if pos < len(inst) {
				at = append(at, inst[pos])
			}
		}
		if len(at) == 0 {
			return out
		}
		out = append(out, quantile(at, 0))
	}
}

// latency is one query's time within a pass.
type latency struct {
	group int
	us    float64
}

// passSample is one timed pass (or read round), its queries, and the
// gauge readings around it.
type passSample struct {
	ms            float64
	lat           []latency
	before, after int
}

// readSide holds the read-path samples of a workload's timed phase.
type readSide struct {
	groups   []string // query ids, or template names for adhoc_cold
	passes   []passSample
	cycleLen int // load_durable: read rounds per cycle; 0: every pass does the same work
	mallocs  uint64
	bytes    uint64
	queries  int // that mallocs and bytes were counted over
}

func newReadSide(groups []string) *readSide { return &readSide{groups: groups} }

// readOp is one query of a read workload with the oracle's answer.
type readOp struct {
	group int
	doc   int // index of the document (and store) it runs on
	xpath string
	want  []int64
}

// readEnv is a read workload set up and ready to be timed.
type readEnv struct {
	mapping string
	docs    []*document
	stores  []store
	dirs    []string
	groups  []string
	ops     []readOp
	passLen int
	cursor  int
	inputs  inputFingerprint
}

func (e *readEnv) close(tl *tally) {
	for _, st := range e.stores {
		tl.op("close", st.Close())
	}
	for _, d := range e.dirs {
		tl.op("remove "+d, os.RemoveAll(d))
	}
}

// pass runs the next passLen queries on the stores, one client, each
// result checked against the oracle; rs nil means untimed warm-up.
func (e *readEnv) pass(g *gauge, tl *tally, rs *readSide) {
	var ps passSample
	if rs != nil {
		collect()
		ps.before = g.mark()
		ps.lat = make([]latency, 0, e.passLen)
	}
	t0 := time.Now()
	for i := 0; i < e.passLen; i++ {
		op := e.next()
		q0 := time.Now()
		nodes, err := e.stores[op.doc].Query(op.xpath)
		d := time.Since(q0)
		if rs != nil {
			ps.lat = append(ps.lat, latency{op.group, us(d)})
		}
		tl.nodes(op.xpath, nodes, op.want, err)
	}
	if rs != nil {
		ps.ms = ms(time.Since(t0))
		ps.after = g.mark()
		rs.passes = append(rs.passes, ps)
	}
}

// next returns the next query of the pass order.
func (e *readEnv) next() *readOp {
	op := &e.ops[e.cursor]
	e.cursor = (e.cursor + 1) % len(e.ops)
	return op
}

// timed runs passes until the budget in seconds is spent (at least
// three), or exactly cfg.Passes of them, adding the samples to rs.
func (e *readEnv) timed(cfg config, g *gauge, budget float64, tl *tally, rs *readSide) {
	mem := startMem()
	t0 := time.Now()
	n := 0
	for ; !done(cfg, n, 3, t0, budget); n++ {
		e.pass(g, tl, rs)
	}
	mallocs, bytes, _, _ := mem.stop()
	rs.mallocs += mallocs
	rs.bytes += bytes
	rs.queries += n * e.passLen
}

// done reports whether a timed loop that has run n passes (or cycles)
// since t0 stops: after cfg.Passes of them when that is set, otherwise
// once the budget in seconds is spent and at least min have run.
func done(cfg config, n, min int, t0 time.Time, budget float64) bool {
	if cfg.Passes > 0 {
		return n >= cfg.Passes
	}
	return n >= min && time.Since(t0).Seconds() >= budget
}

// collect empties the heap of garbage before a timed pass, read round
// or write-path sample, so that none of them pays for collecting what
// came before it and a pass is too short to trigger a collection of
// its own: one pass in four would otherwise take half as long again,
// and which passes those are would decide a run's means. What the
// collector costs a workload is gated through allocs_per_query,
// alloc_kb_per_query and heap_mb_loaded, which are exact.
func collect() { runtime.GC() }

// timeOp times one write-path operation from a collected heap.
func timeOp(op func() error) (time.Duration, error) {
	collect()
	t0 := time.Now()
	err := op()
	return time.Since(t0), err
}

// durableLoad puts one document through a store's whole write path in
// a fresh directory — commit, checkpoint, close, recover — and returns
// the recovered store, so what the read workloads query is what
// survived a restart.
func durableLoad(cfg config, mapping string, doc *document, ws *writeSide, tl *tally) (store, string, error) {
	dir, err := os.MkdirTemp(cfg.OutDir, "store-")
	if err != nil {
		return nil, "", err
	}
	st, err := openStore(mapping, dir, doc.Schema)
	if err != nil {
		return nil, dir, err
	}
	d, err := timeOp(func() error { return st.LoadXML(doc.XML) })
	ws.commit(d, len(doc.XML))
	tl.op("load "+doc.Name, err)
	n, err := fileSize(dir, walFile)
	if err != nil {
		_ = st.Close() // the stat error is the one to report
		return nil, dir, err
	}
	ws.walBytes += n
	d, err = timeOp(st.Checkpoint)
	push(ws.ckptS, d.Seconds())
	tl.op("checkpoint "+doc.Name, err)
	if err := st.Close(); err != nil {
		return nil, dir, err
	}
	d, err = timeOp(func() (err error) {
		st, err = openStore(mapping, dir, doc.Schema)
		return err
	})
	push(ws.recoveryS, d.Seconds())
	return st, dir, err
}

// setupFig3 generates XMark and DBLP from the seed, loads each into
// its own durable store of the mapping, answers the 22 queries with
// the native oracle and runs one untimed pass, which also checks every
// result and leaves the plan and pattern caches hot.
func setupFig3(cfg config, mapping string, ws *writeSide, tl *tally) (*readEnv, error) {
	xm, err := genXMark(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	db, err := genDBLP(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	e := &readEnv{mapping: mapping, docs: []*document{xm, db}}
	e.inputs.Docs = map[string]docFingerprint{}
	e.inputs.Results = map[string]resultFingerprint{}
	for di, qs := range [][]query{xmarkQueries, dblpQueries} {
		doc := e.docs[di]
		e.inputs.Docs[doc.Name] = doc.fingerprint()
		ev := native.New(doc.Tree)
		for _, q := range qs {
			want, err := oracleIDs(ev, q.XPath)
			if err != nil {
				return nil, err
			}
			e.inputs.Results[q.ID] = fingerprintIDs(want)
			e.ops = append(e.ops, readOp{group: len(e.groups), doc: di, xpath: q.XPath, want: want})
			e.groups = append(e.groups, q.ID)
		}
	}
	e.passLen = len(e.ops)
	return e, e.open(cfg, ws, tl)
}

// setupAdhoc generates XMark from the seed, loads it into a durable
// schema-aware store, builds the shuffled template instances with the
// oracle's answers and runs one untimed pass.
func setupAdhoc(cfg config, ws *writeSide, tl *tally) (*readEnv, error) {
	xm, err := genXMark(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ops, err := adhocOps(xm, native.New(xm.Tree), cfg.Seed)
	if err != nil {
		return nil, err
	}
	e := &readEnv{mapping: mappingPPF, docs: []*document{xm}, passLen: cfg.PassLen}
	e.inputs.Docs = map[string]docFingerprint{xm.Name: xm.fingerprint()}
	for _, t := range adhocTemplates {
		e.groups = append(e.groups, t.Name)
	}
	var all []int64
	for _, op := range ops {
		e.ops = append(e.ops, readOp{group: op.Template, xpath: op.XPath, want: op.Want})
		all = append(all, op.Want...)
	}
	e.inputs.AdhocTexts = len(ops)
	e.inputs.Results = map[string]resultFingerprint{"adhoc_all": fingerprintIDs(all)}
	return e, e.open(cfg, ws, tl)
}

// open loads every document durably and warms the stores up. On an
// error the caller still closes what was opened.
func (e *readEnv) open(cfg config, ws *writeSide, tl *tally) error {
	ws.begin()
	for _, doc := range e.docs {
		st, dir, err := durableLoad(cfg, e.mapping, doc, ws, tl)
		if dir != "" {
			e.dirs = append(e.dirs, dir)
		}
		if err != nil {
			return err
		}
		e.stores = append(e.stores, st)
	}
	e.pass(nil, tl, nil) // untimed: no gauge readings
	return nil
}

// loadEnv is load_durable set up: the documents of one cycle and, per
// read-round query, each document's oracle answer.
type loadEnv struct {
	docs   []*document
	want   [][][]int64 // [document][read-round query] node ids within the document
	bases  []int64     // per document, how far it advances the store's id base
	groups []string
	inputs inputFingerprint
}

// setupLoad generates the cycle's distinct documents from the seed and
// serialises them, and answers the read round on each with the oracle.
func setupLoad(cfg config) (*loadEnv, error) {
	e := &loadEnv{}
	for _, q := range readRound {
		e.groups = append(e.groups, q.ID)
	}
	total := docFingerprint{}
	paths := map[string]bool{}
	var all []int64
	for i := 0; i < cfg.Docs; i++ {
		doc, err := genXMark(cfg.DocScale, cfg.Seed*1000+int64(i))
		if err != nil {
			return nil, err
		}
		ev := native.New(doc.Tree)
		want := make([][]int64, len(readRound))
		for qi, q := range readRound {
			if want[qi], err = oracleIDs(ev, q.XPath); err != nil {
				return nil, err
			}
			all = append(all, want[qi]...)
		}
		total.XMLBytes += len(doc.XML)
		total.Nodes += doc.Tree.Len()
		for _, p := range doc.Tree.DistinctPaths() {
			paths[p] = true
		}
		e.docs = append(e.docs, doc)
		e.want = append(e.want, want)
		e.bases = append(e.bases, doc.maxElementID())
	}
	total.Paths = len(paths)
	e.inputs.Docs = map[string]docFingerprint{"xmark_small_total": total}
	e.inputs.Results = map[string]resultFingerprint{"read_round_all": fingerprintIDs(all)}
	return e, nil
}

// cycle runs load_durable once in a fresh directory: every document
// committed with LoadXML (fsync per commit, the engine's only mode),
// the read round after every roundEvery commits on the statements the
// commits just invalidated, a checkpoint at half and full size, Close,
// and reopenCount recoveries, each of which must return what the last
// read round before Close returned. base is the live heap before.
func (e *loadEnv) cycle(cfg config, base float64, ws *writeSide, rs *readSide, tl *tally) error {
	dir, err := os.MkdirTemp(cfg.OutDir, "store-")
	if err != nil {
		return err
	}
	defer func() { tl.op("remove "+dir, os.RemoveAll(dir)) }()
	schema := xmark.Schema()
	st, err := openStore(mappingPPF, dir, schema)
	if err != nil {
		return err
	}
	open := true
	defer func() {
		if open {
			_ = st.Close() // only on an error return, which is the one to report
		}
	}()
	ws.begin()
	want := make([][]int64, len(readRound)) // the oracle's answer on the store so far
	var idBase int64
	rounds := 0
	round := func(timed bool) {
		var ps passSample
		if timed {
			collect()
		}
		mem := startMem()
		t0 := time.Now()
		for qi, q := range readRound {
			q0 := time.Now()
			nodes, err := st.Query(q.XPath)
			ps.lat = append(ps.lat, latency{qi, us(time.Since(q0))})
			tl.nodes(q.XPath, nodes, want[qi], err)
		}
		if timed {
			ps.ms = ms(time.Since(t0))
			m, b, _, _ := mem.stop()
			rs.passes = append(rs.passes, ps)
			rs.mallocs += m
			rs.bytes += b
			rs.queries += len(readRound)
			rounds++
		}
	}
	half := (len(e.docs) + 1) / 2
	for i, doc := range e.docs {
		t0 := time.Now()
		err := st.LoadXML(doc.XML)
		ws.commit(time.Since(t0), len(doc.XML))
		tl.op("load", err)
		for qi := range want {
			for _, id := range e.want[i][qi] {
				want[qi] = append(want[qi], idBase+id)
			}
		}
		idBase += e.bases[i]
		last := i+1 == len(e.docs)
		if (i+1)%roundEvery == 0 || last {
			round(true)
		}
		if i+1 == half || last {
			n, err := fileSize(dir, walFile)
			if err != nil {
				return err
			}
			ws.walBytes += n
			d, err := timeOp(st.Checkpoint)
			push(ws.ckptS, d.Seconds())
			tl.op("checkpoint", err)
		}
	}
	rs.cycleLen = rounds
	ws.heapMB = append(ws.heapMB, liveHeapMB()-base)
	for i := 0; ; i++ {
		open = false
		if err := st.Close(); err != nil {
			return err
		}
		if i == reopenCount {
			return nil
		}
		d, err := timeOp(func() (err error) {
			st, err = openStore(mappingPPF, dir, schema)
			return err
		})
		push(ws.recoveryS, d.Seconds())
		if err != nil {
			return err
		}
		open = true
		round(false)
	}
}
