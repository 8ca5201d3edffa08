package engine

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/failpoint"
	"repro/internal/keyenc"
	"repro/internal/synopsis"
)

// Column describes one column of a table.
type Column struct {
	Name string
	Type Type
}

// Table is a stable handle to a table with optional indexes. The handle carries only the schema (name, columns) and the
// table's slot in the database snapshot; the versioned contents live
// in immutable tableState values published atomically by the single
// writer (see dbSnap). A statement — serial or morsel-parallel — pins
// the states its plan was compiled against and never observes a
// concurrent writer's partial work: readers are isolated by
// construction, not by external serialization.
type Table struct {
	Name   string
	Cols   []Column
	colIdx map[string]int
	pos    int // slot in dbSnap.states
	db     *DB
}

// tableState is one immutable version of a table's contents. Cells
// and index runs are never mutated after the state is published: a
// write builds a successor state sharing structure with its
// predecessor (column chunks by extension, column.go; runs by
// reference until the write reorders them) and publishes it in a new
// database snapshot.
type tableState struct {
	// version counts mutations (Insert, CreateIndex) monotonically per
	// table, so cached plans can detect that a table they were planned
	// against has changed. Distinct states always carry distinct
	// versions; the plan cache compares state pointers directly.
	version uint64
	// n is the number of rows, and cols holds them: one column per
	// schema column, each cell addressed by its row id, 0 to n-1.
	n       int
	cols    []column
	indexes []*Index
	// builds and resolved are the state's derived state (memo.go): lazy
	// memos over its immutable cells. A successor state starts with empty
	// memos, so an entry is never stale and a writer never touches a memo
	// a running query is using; the plan cache retires the plans that
	// used an entry when the state moves on.
	//
	// builds holds the executor's hash indexes and scoped runs, each built
	// once (tableState.build); a whole-column hash is the zero scope.
	builds memo[buildKey, build]
	// resolved holds the key and pair sets plan-time resolution
	// (resolve.go) computed over the rows, so the statements of one
	// template — and the steps of one statement — resolve a pattern once
	// per state, not once per compile.
	resolved memo[resolveKey, resolvedSet]
	// carried holds the resolved sets of the states before this one,
	// each over the rows its state held (resolvedSet.n): what a miss in
	// resolved extends over the rows appended since instead of resolving
	// over every row (resolve.go). It is set when the state is made
	// (carry) and never written after; no entry refers to a state.
	carried map[resolveKey]resolvedSet
	// syn is the state's path/column synopsis: per-column counts,
	// min/max, value histograms, and distinct sketches maintained
	// incrementally by applyInsert. Like cells and indexes it is
	// immutable once the state is published, so the planner's
	// estimates are snapshot-consistent by construction; recovery and
	// checkpoint reload rebuild it by committing the logged inserts
	// through the same applyInsert as live writes.
	syn *synopsis.Table
	// ascending[c] reports that row-id order is column c's order: no
	// value of c is NULL and each row's is strictly greater than the
	// previous row's (trivially so for an empty table). It is a physical
	// property of this state's cells, exact by construction — applyInsert
	// compares each appended cell with its predecessor — so the planner
	// may drop a sort on its strength (implied.go); a column that failed
	// once stays failed. Shared with the predecessor state until a
	// column fails.
	ascending []bool
}

// dbSnap is an immutable snapshot of the whole database: the table
// handles (by name and creation order) plus the current state of
// every table, indexed by Table.pos. The single writer publishes a
// new snapshot per commit; a reader loads one pointer and sees a
// consistent multi-table view — a batch commit spanning several
// tables becomes visible all at once or not at all.
type dbSnap struct {
	seq    uint64
	byName map[string]*Table
	names  []string
	states []*tableState
}

// table resolves a name in this snapshot, or nil.
func (s *dbSnap) table(name string) *Table { return s.byName[name] }

// stateOf returns the pinned state of a table in this snapshot.
func (s *dbSnap) stateOf(t *Table) *tableState { return s.states[t.pos] }

// clone copies the snapshot's mutable containers for the writer to
// edit before publishing. Table states are shared by pointer; the
// writer replaces only the slots it touches.
func (s *dbSnap) clone() *dbSnap {
	return &dbSnap{
		seq:    s.seq + 1,
		byName: s.byName, // copied on CreateTable only
		names:  s.names,
		states: append(make([]*tableState, 0, len(s.states)+1), s.states...),
	}
}

// DB is a database: a set of tables with snapshot-isolated reads, a
// single serialized writer, and (when opened with Open) a write-ahead
// log making every committed statement durable.
type DB struct {
	//walorder:publish
	snap atomic.Pointer[dbSnap]
	// writeMu serializes all mutations: commit builds the successor
	// snapshot, appends the WAL record and publishes under this lock.
	// Readers never take it.
	writeMu sync.Mutex
	plans   planCache
	// pers is the durability hook: nil for in-memory databases (and
	// during recovery), otherwise the WAL commits are logged to before
	// they are published (see persist.go).
	//guardedby:writeMu
	pers *persister
	// peakMem is the high-water mark of per-statement accounted
	// memory across every statement run against this DB.
	peakMem atomic.Int64
	// forceWorkers, when positive, takes the executor decision
	// (morselWorkers) away from the plan and GOMAXPROCS for every
	// top-level select: 1 runs the serial executor, n > 1 the morsel
	// executor on up to n workers. Engine tests set it, before running
	// statements, to compare the two executors; nothing else does.
	forceWorkers int
	// forceBatch, when positive, replaces batchCapacity as the row-id
	// batch capacity of every statement. Engine tests set it, before
	// running statements, to check that results, operator stats and
	// budget errors are the same at every capacity; nothing else does.
	forceBatch int
	// forceHeuristic plans every statement without looking at the data:
	// no synopsis estimates, filter omissions, plan-time resolutions or
	// implied-property proofs, only the named defaults. Engine tests set it, through ForceHeuristic, as the
	// control the data-driven plans are checked against; nothing else
	// does.
	forceHeuristic bool
}

// AdaptiveReplans is always 0: the engine plans a statement once per
// snapshot and never re-plans it from what its executions observed.
//
// Deprecated: kept only for callers that still read it.
func (db *DB) AdaptiveReplans() uint64 { return 0 }

// loadSnap returns the current snapshot.
func (db *DB) loadSnap() *dbSnap { return db.snap.Load() }

// notePeakMemory folds one statement's peak accounted memory into
// the DB-level high-water mark.
func (db *DB) notePeakMemory(peak int64) {
	for {
		p := db.peakMem.Load()
		if peak <= p || db.peakMem.CompareAndSwap(p, peak) {
			return
		}
	}
}

// PeakStatementMemory returns the largest peak accounted memory any
// single statement has reached on this DB (see Result.PeakMemBytes).
func (db *DB) PeakStatementMemory() int64 { return db.peakMem.Load() }

// NewDB returns an empty in-memory database.
func NewDB() *DB {
	db := &DB{}
	db.snap.Store(&dbSnap{byName: map[string]*Table{}})
	return db
}

// A mutation is one change to the database, of one of the three kinds
// the WAL records (persist.go): createTable, insertRows, createIndex.
// Live writes, WAL replay and checkpoint load all hand their mutation
// to commit and reach a successor snapshot through the same apply.
type mutation interface {
	// apply checks the mutation against db's current snapshot and
	// builds the successor; it modifies nothing a reader can see.
	// Everything that can reject the mutation happens here.
	apply(db *DB) (*dbSnap, error)
	// encode renders the mutation as a record payload.
	encode() []byte
}

type createTable struct {
	name string
	cols []Column
}

type createIndex struct {
	table, index string
	cols         []string
}

// insertRows is a batch of rows for one or more tables.
type insertRows []insertGroup

// insertGroup is one table's slice of an insert batch: a live caller's
// rows, or n rows still encoded in rec, a slice of the record they were
// decoded from.
type insertGroup struct {
	table string
	rows  [][]Value
	rec   []byte
	n     int
	// checked is the handle a live caller validated the rows against;
	// a group decoded from a record has none and apply validates it.
	checked *Table
}

// commit is the engine's one commit path, a three-state machine run
// under writeMu: apply (check and build the successor; nothing is
// visible or logged yet, so an error leaves no trace) → log + fsync
// the record (persistent databases only; on failure the WAL poisons
// itself and this and every later commit fails until the directory is
// reopened) → publish. Nothing between the fsync and the publish can
// fail, so an acknowledged record and the visible state never part
// ways. Recovery runs records through this same function before the
// persister is attached: the log step then has nothing to do, because
// the record is already on disk.
func (db *DB) commit(m mutation) (*dbSnap, error) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	next, err := m.apply(db)
	if err != nil {
		return nil, err
	}
	if err := db.logRecord(m); err != nil {
		return nil, err
	}
	db.snap.Store(next)
	return next, nil
}

// CreateTable creates a table. The column list must be non-empty with
// unique names. Like every mutation it is durably logged first when
// the database is persistent.
func (db *DB) CreateTable(name string, cols ...Column) (*Table, error) {
	next, err := db.commit(createTable{name: name, cols: cols})
	if err != nil {
		return nil, err
	}
	return next.table(name), nil
}

// apply adds the table, with an empty state, to a copy of the catalog.
func (m createTable) apply(db *DB) (*dbSnap, error) {
	snap := db.loadSnap()
	if _, exists := snap.byName[m.name]; exists {
		return nil, fmt.Errorf("engine: table %q already exists", m.name)
	}
	if len(m.cols) == 0 {
		return nil, fmt.Errorf("engine: table %q needs at least one column", m.name)
	}
	t := &Table{Name: m.name, Cols: m.cols, colIdx: map[string]int{}, pos: len(snap.states), db: db}
	for i, c := range m.cols {
		if _, dup := t.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("engine: duplicate column %q in table %q", c.Name, m.name)
		}
		t.colIdx[c.Name] = i
	}
	next := snap.clone()
	next.byName = make(map[string]*Table, len(snap.byName)+1)
	for k, v := range snap.byName {
		next.byName[k] = v
	}
	next.byName[m.name] = t
	next.names = append(append([]string(nil), snap.names...), m.name)
	st := newTableState()
	st.cols = make([]column, len(m.cols))
	st.ascending = make([]bool, len(m.cols))
	for i, c := range m.cols {
		st.cols[i].typ = c.Type
		st.ascending[i] = true
	}
	next.states = append(next.states, st)
	return next, nil
}

func newTableState() *tableState {
	return &tableState{
		builds:   memo[buildKey, build]{cap: maxResolveMemo},
		resolved: memo[resolveKey, resolvedSet]{cap: maxResolveMemo},
		syn:      synopsis.Empty(),
	}
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table { return db.loadSnap().table(name) }

// TableNames returns the table names in creation order.
func (db *DB) TableNames() []string {
	return append([]string(nil), db.loadSnap().names...)
}

// ColIndex returns the position of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// state returns the table's current published state.
func (t *Table) state() *tableState { return t.db.loadSnap().stateOf(t) }

// Rows materialises the rows of the table's current snapshot: a fresh
// copy of every row, whose text and bytes values share the store's
// memory (ColumnReader.Value). It costs a Value per cell; Len and
// Column read a snapshot without it. Later inserts do not change the
// copy — re-call Rows to observe them.
func (t *Table) Rows() [][]Value {
	st := t.state()
	rows := make([][]Value, st.n)
	cells := make([]Value, st.n*len(st.cols))
	for id := range rows {
		row := cells[id*len(st.cols) : (id+1)*len(st.cols) : (id+1)*len(st.cols)]
		for j := range st.cols {
			row[j] = st.cols[j].value(int64(id))
		}
		rows[id] = row
	}
	return rows
}

// Len returns the number of rows in the table's current snapshot.
func (t *Table) Len() int { return t.state().n }

// Column returns a reader over column i of the table's current
// snapshot.
func (t *Table) Column(i int) ColumnReader {
	st := t.state()
	return ColumnReader{c: &st.cols[i], n: st.n}
}

// Version returns the table's mutation counter: it increments on
// every Insert/InsertBatch/CreateIndex commit.
func (t *Table) Version() uint64 { return t.state().version }

// validateRow checks arity and value kinds against the schema.
func (t *Table) validateRow(row []Value) error {
	if len(row) != len(t.Cols) {
		return fmt.Errorf("engine: table %q expects %d values, got %d", t.Name, len(t.Cols), len(row))
	}
	for i, v := range row {
		if v.IsNull() {
			continue
		}
		ok := false
		switch t.Cols[i].Type {
		case TInt:
			ok = v.Kind == KInt
		case TFloat:
			ok = v.Kind == KFloat || v.Kind == KInt
		case TText:
			ok = v.Kind == KText
		case TBytes:
			ok = v.Kind == KBytes
		}
		if !ok {
			return fmt.Errorf("engine: table %q column %q (%s) cannot hold %s",
				t.Name, t.Cols[i].Name, t.Cols[i].Type, v.Kind)
		}
	}
	return nil
}

// applyInsert builds the successor state of t's state st appending
// g's rows; it never mutates st. The rows' cells are copied into the
// successor's columns (appender), which share st's chunks and write
// only past st's length, so nothing a caller later does to its rows
// reaches a published state. A group decoded from a record is decoded
// here, one row at a time into one scratch row, and validated against
// t's schema: its cells go straight from the record into the columns.
// Each index is extended (Index.extend), which copies a run it
// reorders, so the predecessor's runs keep serving concurrent readers
// unchanged.
func applyInsert(st *tableState, t *Table, g insertGroup) (*tableState, error) {
	next := newTableState()
	next.version = st.version + 1
	apps := make([]appender, len(st.cols))
	for j := range apps {
		apps[j].c = st.cols[j]
	}
	syn := synopsis.Extend(st.syn)
	next.n = st.n + len(g.rows)
	for _, row := range g.rows {
		for j := range apps {
			apps[j].add(&row[j])
		}
		observeRow(syn, row)
	}
	if g.rec != nil {
		next.n = st.n + g.n
		d := recDecoder{buf: g.rec}
		row := make([]Value, 0, len(apps))
		for i := 0; i < g.n; i++ {
			row = row[:0]
			for nv := d.uvarint(); nv > 0 && d.err == nil; nv-- {
				row = append(row, d.value())
			}
			if err := t.validateRow(row); err != nil {
				return nil, err
			}
			for j := range apps {
				apps[j].add(&row[j])
			}
			observeRow(syn, row)
		}
		if err := d.done(); err != nil {
			return nil, fmt.Errorf("engine: insert into %q: %w", t.Name, err)
		}
	}
	next.cols = make([]column, len(apps))
	for j := range apps {
		next.cols[j] = apps[j].column()
	}
	next.syn = syn.Seal()
	next.ascending = ascendingAfter(st.ascending, next, st.n)
	next.carried = st.carry()
	next.indexes = make([]*Index, len(st.indexes))
	for i, ix := range st.indexes {
		next.indexes[i] = ix.extend(next)
	}
	return next, nil
}

// ascendingAfter returns the ascending flags of st, whose rows from id
// base on were just appended, given asc, its predecessor's: asc itself
// while no column fails, a copy otherwise.
func ascendingAfter(asc []bool, st *tableState, base int) []bool {
	owned := false
	for c, up := range asc {
		for id := int64(base); up && id < int64(st.n); id++ {
			up = st.cols[c].ascendsAt(id)
		}
		if up == asc[c] {
			continue
		}
		if !owned {
			asc, owned = append([]bool(nil), asc...), true
		}
		asc[c] = false
	}
	return asc
}

// ascends reports whether v keeps a column strictly ascending after
// prev (first: v is the column's first value). The comparison is the
// one the sort's memcomparable keys make for values of one class; a
// NULL, a float or a change of kind does not ascend.
func ascends(prev, v Value, first bool) bool {
	if first {
		return v.Kind == KInt || v.Kind == KText || v.Kind == KBytes
	}
	if prev.Kind != v.Kind {
		return false
	}
	switch v.Kind {
	case KInt:
		return prev.I < v.I
	case KText:
		return prev.S < v.S
	case KBytes:
		return bytes.Compare(prev.B, v.B) < 0
	}
	return false
}

// apply appends each group's rows to its table. A table named twice
// sees both groups.
func (m insertRows) apply(db *DB) (*dbSnap, error) {
	snap := db.loadSnap()
	next := snap.clone()
	for _, g := range m {
		t := snap.table(g.table)
		switch {
		case t == nil:
			return nil, fmt.Errorf("engine: insert into unknown table %q", g.table)
		case g.checked == nil:
			for _, row := range g.rows {
				if err := t.validateRow(row); err != nil {
					return nil, err
				}
			}
		case g.checked != t:
			return nil, fmt.Errorf("engine: table handle %q belongs to another database", g.table)
		}
		st, err := applyInsert(next.states[t.pos], t, g)
		if err != nil {
			return nil, err
		}
		next.states[t.pos] = st
	}
	return next, nil
}

// Insert appends a row: a one-row InsertBatch.
func (t *Table) Insert(row []Value) (int64, error) { return t.InsertBatch([][]Value{row}) }

// InsertBatch appends rows atomically: one commit, one WAL record,
// one fsync, one published snapshot. Readers observe all of the batch
// or none of it. Each row's length must match the column count and
// its value kinds the column types (or NULL). The commit copies every
// cell, text and bytes payloads included, into the table's columns:
// the caller may reuse its rows and buffers once InsertBatch returns.
// All indexes are maintained; the commit is durable (WAL + fsync)
// before it becomes visible when the database is persistent. It
// returns the row id assigned to the first row.
func (t *Table) InsertBatch(rows [][]Value) (int64, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	for _, row := range rows {
		if err := t.validateRow(row); err != nil {
			return 0, err
		}
	}
	next, err := t.db.commit(insertRows{{table: t.Name, rows: rows, checked: t}})
	if err != nil {
		return 0, err
	}
	return int64(next.stateOf(t).n - len(rows)), nil
}

// MustInsert is Insert that panics on error, for loaders with
// statically known shapes.
func (t *Table) MustInsert(row ...Value) int64 {
	id, err := t.Insert(row)
	if err != nil {
		panic(err)
	}
	return id
}

// observeRow feeds one row's values into the synopsis builder,
// dispatching on value kind (the synopsis package is engine-agnostic).
func observeRow(b *synopsis.Builder, row []Value) {
	for i, v := range row {
		switch v.Kind {
		case KNull:
			b.Null(i)
		case KInt, KBool:
			b.Int(i, v.I)
		case KFloat:
			b.Float(i, v.F)
		case KText:
			b.Text(i, v.S)
		case KBytes:
			b.Bytes(i, v.B)
		}
	}
	b.Row()
}

// applyCreateIndex builds the successor state carrying the new index
// over the existing rows (newIndex): where row order is already key
// order — the shredded stores' id and Dewey indexes — it stores no run.
// The columns and synopsis are shared with the predecessor: an index
// changes access paths, not contents.
func applyCreateIndex(st *tableState, name string, positions []int) *tableState {
	next := newTableState()
	next.version = st.version + 1
	next.n = st.n
	next.cols = st.cols
	next.syn = st.syn
	next.ascending = st.ascending
	next.carried = st.carry()
	next.indexes = append(append([]*Index(nil), st.indexes...), newIndex(name, positions, st))
	return next
}

// keyCols returns the state's columns at positions cols.
func (st *tableState) keyCols(cols []int) []*column {
	out := make([]*column, len(cols))
	for i, c := range cols {
		out[i] = &st.cols[c]
	}
	return out
}

// apply resolves the index columns against the table's schema and
// current indexes, and indexes the existing rows.
func (m createIndex) apply(db *DB) (*dbSnap, error) {
	snap := db.loadSnap()
	t := snap.table(m.table)
	if t == nil {
		return nil, fmt.Errorf("engine: unknown table %q", m.table)
	}
	if len(m.cols) == 0 {
		return nil, fmt.Errorf("engine: index %q needs at least one column", m.index)
	}
	positions := make([]int, len(m.cols))
	for i, c := range m.cols {
		if positions[i] = t.ColIndex(c); positions[i] < 0 {
			return nil, fmt.Errorf("engine: index %q: no column %q in table %q", m.index, c, t.Name)
		}
	}
	st := snap.stateOf(t)
	for _, existing := range st.indexes {
		if existing.Name == m.index {
			return nil, fmt.Errorf("engine: index %q already exists on table %q", m.index, t.Name)
		}
	}
	next := snap.clone()
	next.states[t.pos] = applyCreateIndex(st, m.index, positions)
	return next, nil
}

// CreateIndex builds an index over the named columns. Existing
// rows are indexed immediately. A new index changes the chosen access
// paths of cached plans, so the commit bumps the table version like
// any other mutation.
func (t *Table) CreateIndex(name string, cols ...string) (*Index, error) {
	next, err := t.db.commit(createIndex{table: t.Name, index: name, cols: cols})
	if err != nil {
		return nil, err
	}
	ixs := next.stateOf(t).indexes
	return ixs[len(ixs)-1], nil
}

// Indexes returns the indexes of the table's current snapshot.
func (t *Table) Indexes() []*Index { return t.state().indexes }

// FindIndex returns an index of the current snapshot whose leading
// columns are exactly the given column positions (in order),
// preferring the shortest such index; nil if none exists.
func (t *Table) FindIndex(leading ...int) *Index { return t.state().findIndex(leading...) }

// findIndex is FindIndex against a pinned state (the planner resolves
// access paths against the snapshot its plan is compiled for).
func (st *tableState) findIndex(leading ...int) *Index {
	var best *Index
	for _, ix := range st.indexes {
		if len(ix.Cols) < len(leading) {
			continue
		}
		match := true
		for i, c := range leading {
			if ix.Cols[i] != c {
				match = false
				break
			}
		}
		if match && (best == nil || len(ix.Cols) < len(best.Cols)) {
			best = ix
		}
	}
	return best
}

// encodeValue appends the order-preserving encoding of v.
func encodeValue(dst []byte, v Value) []byte {
	switch v.Kind {
	case KNull:
		return keyenc.AppendNull(dst)
	case KInt, KBool:
		return keyenc.AppendInt(dst, v.I)
	case KFloat:
		// Floats are keyed by their text form only in row-distinct keys;
		// indexes on float columns are not used for range scans here.
		return keyenc.AppendText(dst, v.String())
	case KText:
		return keyenc.AppendText(dst, v.S)
	case KBytes:
		return keyenc.AppendBytes(dst, v.B)
	}
	return dst
}

// hashScope restricts a hash build, or a scoped run, to the rows whose
// column col holds a key of keys: the rows a step's key test
// (resolve.go) admits. The zero scope (nil keys) admits every row.
type hashScope struct {
	col  int
	keys *keySet
}

// postings returns the rows the scope admits as the merged posting
// lists of its keys — one probe a key of a single-column index on its
// column, yielding the rows in row order — or false where the scope
// admits every row or no such index is on its column, and a walk tests
// each row (admits).
func (sc hashScope) postings(st *tableState) (merge, bool) {
	if sc.keys == nil {
		return nil, false
	}
	ix := st.findIndex(sc.col)
	if ix == nil || len(ix.Cols) != 1 {
		return nil, false
	}
	segs := make([]seg, 0, len(sc.keys.keys))
	for _, k := range sc.keys.keys {
		v := [1]Value{NewInt(k)}
		if r := ix.equal(v[:]); r.lo < r.hi {
			segs = append(segs, r)
		}
	}
	return newMerge(segs), true
}

func (sc hashScope) admits(st *tableState, id int64) bool {
	if sc.keys == nil {
		return true
	}
	k, ok := st.cols[sc.col].int(id)
	if !ok {
		return false
	}
	_, ok = sc.keys.has[k]
	return ok
}

// buildKey addresses one entry of tableState.builds: the hash index of
// column col over the rows the scope in admits, or with distinct the
// values alone, the hash's keys without their row ids; or, where run is
// set, the scoped run of that index (col its leading column) over the
// rows the scope admits. A scope names its key set by pointer, the
// set's entry in its dimension state's resolved memo. One set can be
// the entry of several dimension states — a successor that appends no
// key keeps its predecessor's set (keySet.with) — and then its contents
// are the same in each, so serving the entry is sound; a set whose
// contents differ is another pointer and another entry.
type buildKey struct {
	col      int
	in       hashScope
	run      *Index
	distinct bool
}

// build is one entry of tableState.builds: a hash index with its
// largest bucket, the distinct values of one (hash, every bucket nil:
// what the planner reads a value join's fan-out off, estimate.go), or
// a scoped run.
type build struct {
	hash map[string][]int64
	max  int
	run  *deweyRun
}

// deweyRun is a scoped run: the run of an index whose leading column
// holds the Dewey position an ancestor or descendant-window step
// compares, kept to the rows a key set admits (hashScope) that hold a
// byte string there — in the index's order, since it is filtered from
// it. has[n] reports a value of length n among them.
type deweyRun struct {
	*Index
	has []bool
}

// build returns the entry k names, building it on demand over this
// state's immutable cells. The "engine/hash-build" failpoint fires on
// every access, built or cached, before any lock, making the build
// path's error handling injectable regardless of which statement
// performed the build. A build happens once, under builds.flight, even
// when morsel workers race for it. A hash walks the rows in id order,
// so every bucket lists its row ids ascending; a scoped run walks its
// index's run, so it is in key order. A scoped build walks only the
// rows its scope admits, the merged posting lists of the scope's keys
// (hashScope.postings), wherever they are in the order it walks: a
// hash's always, a scoped run's where its index's run is the rows
// themselves. The build is charged to the statement's accountant (a
// hash's keys and entries, 8 bytes a row id) and aborts over budget
// without publishing; built reports whether this call performed the
// build (so callers can re-check deadlines after a long one) and
// charged the amount, for attribution to the operator's OpStats.
func (st *tableState) build(k buildKey, ac *accountant) (b build, built bool, charged int64, err error) {
	if err := failpoint.Inject("engine/hash-build"); err != nil {
		return build{}, false, 0, err
	}
	if b, ok := st.builds.get(k); ok {
		return b, false, 0, nil
	}
	st.builds.flight.Lock()
	defer st.builds.flight.Unlock()
	if b, ok := st.builds.get(k); ok {
		return b, false, 0, nil
	}
	var buf []byte
	walk := seg{hi: st.n}
	switch {
	case k.run != nil:
		b.run = &deweyRun{Index: &Index{Name: k.run.Name, Cols: k.run.Cols, key: k.run.key, n: st.n, ids: []int64{}}}
		walk = k.run.run(0, walk.hi)
	case k.in.keys == nil:
		b.hash = make(map[string][]int64, min(st.n, int(st.syn.Col(k.col).Distinct())+1))
	default:
		b.hash = make(map[string][]int64)
	}
	var m merge
	posted := false
	if k.run == nil || k.run.ids == nil {
		m, posted = k.in.postings(st)
	}
	col := &st.cols[k.col]
	for i, n := walk.lo, 0; ; n++ {
		var id int64
		if posted {
			var more bool
			if id, more = m.next(); !more {
				break
			}
		} else {
			if i == walk.hi {
				break
			}
			id, i = walk.at(i), i+1
		}
		switch v := col.value(id); {
		case !posted && !k.in.admits(st, id):
		case k.run == nil:
			buf = encodeValue(buf[:0], v)
			key := string(buf)
			ids, ok := b.hash[key]
			if !ok {
				charged += int64(len(key)) + mapEntryBytes
			}
			if k.distinct {
				b.hash[key] = nil
				break
			}
			charged += 8 // one row id
			b.hash[key] = append(ids, id)
			b.max = max(b.max, len(ids)+1)
		case v.Kind == KBytes:
			b.run.ids = append(b.run.ids, id)
			charged += 8
			for len(b.run.has) <= len(v.B) {
				b.run.has = append(b.run.has, false)
			}
			b.run.has[len(v.B)] = true
		}
		if n&0x3FF == 0x3FF {
			// Abort an over-budget build mid-way rather than after
			// materializing it whole.
			if err := ac.wouldExceed(charged); err != nil {
				return build{}, false, 0, err
			}
		}
	}
	if err := ac.growBytes(charged); err != nil {
		return build{}, false, 0, err
	}
	return st.builds.put(k, b), true, charged, nil
}

// Synopsis returns the synopsis of the table's current snapshot. It
// is immutable; later inserts publish a successor.
func (t *Table) Synopsis() *synopsis.Table { return t.state().syn }

// Stats returns simple statistics used by the planner and reports.
type Stats struct {
	Rows    int
	Indexes int
}

// Stats returns the statistics of the table's current snapshot.
func (t *Table) Stats() Stats {
	st := t.state()
	return Stats{Rows: st.n, Indexes: len(st.indexes)}
}

// SortedTableSizes renders "name=rows" pairs sorted by name, for
// loader diagnostics. The counts come from one snapshot: a batch
// commit is reflected in all of them or none.
func (db *DB) SortedTableSizes() []string {
	snap := db.loadSnap()
	names := append([]string(nil), snap.names...)
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = fmt.Sprintf("%s=%d", n, snap.stateOf(snap.byName[n]).n)
	}
	return out
}
