package engine

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/failpoint"
	"repro/internal/keyenc"
	"repro/internal/synopsis"
)

// Column describes one column of a table.
type Column struct {
	Name string
	Type Type
}

// Table is a stable handle to a row-store table with optional B+tree
// indexes. The handle carries only the schema (name, columns) and the
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

// tableState is one immutable version of a table's contents. Rows and
// index trees are never mutated after the state is published: a write
// builds a successor state sharing structure with its predecessor
// (rows by slice extension, trees by copy-on-write cloning) and
// publishes it in a new database snapshot.
type tableState struct {
	// version counts mutations (Insert, CreateIndex) monotonically per
	// table, so cached plans can detect that a table they were planned
	// against has changed. Distinct states always carry distinct
	// versions; the plan cache compares state pointers directly.
	version uint64
	rows    [][]Value
	indexes []*Index
	// hashIdx caches transient single-column hash indexes built on
	// demand by the executor for equijoins on non-indexed columns — the
	// engine's hash-join mechanism. Keyed by column position. The cache
	// is a lazy memo over this state's immutable rows, guarded by
	// hashMu; successor states start with an empty cache, which is the
	// snapshot-world equivalent of the old drop-on-insert invalidation
	// (and structurally fixes the reader/writer race that invalidation
	// had: a writer never touches the cache a running query is using).
	hashMu sync.Mutex
	//guardedby:hashMu
	hashIdx map[int]map[string][]int64
	//guardedby:hashMu
	hashMax map[int]int // largest bucket per hashed column
	// scopedHash memoises the hash builds restricted to the rows a key
	// set admits (hashScope), by column and scope. A scope names its key
	// set by pointer, the set's entry in its dimension state's resolved
	// memo, so a key set of another state is another entry and is never
	// served. Bounded by maxResolveMemo, flushed whole on overflow.
	//guardedby:hashMu
	scopedHash map[scopedKey]map[string][]int64
	// scopedRun memoises the Dewey steps' runs over the rows a key set
	// admits (deweyRun), keyed and bounded as scopedHash is.
	//guardedby:hashMu
	scopedRun map[scopedKey]*deweyRun
	// resolved memoises the key and pair sets plan-time resolution
	// (resolve.go) computed over this state's rows, so the statements of
	// one template — and the steps of one statement — resolve a pattern
	// once per state, not once per compile. Like hashIdx it is a lazy
	// memo over immutable rows: a successor state starts empty, so an
	// entry can never be stale, and the plan cache retires the plans
	// that used it when the state moves on. Bounded by maxResolveMemo.
	resolveMu sync.Mutex
	//guardedby:resolveMu
	resolved map[resolveKey]resolvedSet
	// syn is the state's path/column synopsis: per-column counts,
	// min/max, value histograms, and distinct sketches maintained
	// incrementally by applyInsert. Like rows and indexes it is
	// immutable once the state is published, so the planner's
	// estimates are snapshot-consistent by construction; recovery and
	// checkpoint reload rebuild it by committing the logged inserts
	// through the same applyInsert as live writes.
	syn *synopsis.Table
	// ascending[c] reports that row-id order is column c's order: no
	// value of c is NULL and each row's is strictly greater than the
	// previous row's (trivially so for an empty table). It is a physical
	// property of this state's rows, exact by construction — applyInsert
	// compares each appended row with its predecessor — so the planner
	// may drop a sort on its strength (implied.go); a column that failed
	// once stays failed. Shared with the predecessor state until a
	// column fails.
	ascending []bool
}

// Index is a B+tree index over one or more columns.
type Index struct {
	Name string
	Cols []int // column positions, in key order
	Tree *btree.Tree
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
	// heuristicPlans disables synopsis-backed estimation (the
	// planquality experiment baseline, SetHeuristicOnlyPlanning).
	heuristicPlans atomic.Bool
	// replanCount counts adaptive re-plans performed on this DB
	// (plancache.go maybeReplan), exposed via AdaptiveReplans.
	replanCount atomic.Uint64
	// forceWorkers, when positive, takes the executor decision
	// (morselWorkers) away from the plan and GOMAXPROCS for every
	// top-level select: 1 runs the serial executor, n > 1 the morsel
	// executor on up to n workers. Engine tests set it, before running
	// statements, to compare the two executors; nothing else does.
	forceWorkers int
}

// AdaptiveReplans returns how many cached plans this DB has re-planned
// because observed OpStats contradicted their cardinality estimates.
func (db *DB) AdaptiveReplans() uint64 { return db.replanCount.Load() }

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

// insertGroup is one table's slice of an insert batch.
type insertGroup struct {
	table string
	rows  [][]Value
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
	st.ascending = make([]bool, len(m.cols))
	for i := range st.ascending {
		st.ascending[i] = true
	}
	next.states = append(next.states, st)
	return next, nil
}

func newTableState() *tableState {
	return &tableState{hashIdx: map[int]map[string][]int64{}, hashMax: map[int]int{}, syn: synopsis.Empty()}
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

// Rows returns the rows of the table's current snapshot. The returned
// slice (and its rows) is immutable shared state: callers must not
// modify it. Later inserts do not change it — re-call Rows to observe
// them.
func (t *Table) Rows() [][]Value { return t.state().rows }

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

// applyInsert builds the successor state appending rows; it never
// mutates st. Row storage is extended in place when capacity allows:
// safe, because the predecessor state's readers are bounded by their
// own slice length and the single writer is serialized by writeMu.
// Index trees are copy-on-write clones, so the predecessor's trees
// keep serving concurrent readers unchanged.
func applyInsert(st *tableState, rows [][]Value) *tableState {
	next := newTableState()
	next.version = st.version + 1
	next.rows = st.rows
	base := int64(len(st.rows))
	syn := synopsis.Extend(st.syn)
	for _, row := range rows {
		next.rows = append(next.rows, row)
		observeRow(syn, row)
	}
	next.syn = syn.Seal()
	next.ascending = ascendingAfter(st.ascending, st.rows, rows)
	next.indexes = make([]*Index, len(st.indexes))
	for i, ix := range st.indexes {
		nix := &Index{Name: ix.Name, Cols: ix.Cols, Tree: ix.Tree.Clone()}
		for j, row := range rows {
			nix.Tree.Insert(nix.key(row), base+int64(j))
		}
		next.indexes[i] = nix
	}
	return next
}

// ascendingAfter returns the ascending flags of old's successor under
// the appended rows: asc itself while no column fails, a copy otherwise.
func ascendingAfter(asc []bool, old, rows [][]Value) []bool {
	var prev []Value
	if len(old) > 0 {
		prev = old[len(old)-1]
	}
	owned := false
	for _, row := range rows {
		for c, up := range asc {
			if !up || ascends(prev, row, c) {
				continue
			}
			if !owned {
				asc, owned = append([]bool(nil), asc...), true
			}
			asc[c] = false
		}
		prev = row
	}
	return asc
}

// ascends reports whether row's value in column c keeps the column
// strictly ascending after prev (nil: row is the table's first). The
// comparison is the one the sort's memcomparable keys make for values
// of one class; a NULL, a float or a change of kind does not ascend.
func ascends(prev, row []Value, c int) bool {
	v := row[c]
	if prev == nil {
		return v.Kind == KInt || v.Kind == KText || v.Kind == KBytes
	}
	if prev[c].Kind != v.Kind {
		return false
	}
	switch v.Kind {
	case KInt:
		return prev[c].I < v.I
	case KText:
		return prev[c].S < v.S
	case KBytes:
		return bytes.Compare(prev[c].B, v.B) < 0
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
		next.states[t.pos] = applyInsert(next.states[t.pos], g.rows)
	}
	return next, nil
}

// Insert appends a row: a one-row InsertBatch.
func (t *Table) Insert(row []Value) (int64, error) { return t.InsertBatch([][]Value{row}) }

// InsertBatch appends rows atomically: one commit, one WAL record,
// one fsync, one published snapshot. Readers observe all of the batch
// or none of it. Each row's length must match the column count and
// its value kinds the column types (or NULL). All indexes are
// maintained; the commit is durable (WAL + fsync) before it becomes
// visible when the database is persistent. It returns the row id
// assigned to the first row.
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
	return int64(len(next.stateOf(t).rows) - len(rows)), nil
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

// applyCreateIndex builds the successor state carrying the new index;
// existing rows are indexed immediately. The synopsis is shared with
// the predecessor: an index changes access paths, not contents.
func applyCreateIndex(st *tableState, name string, positions []int) *tableState {
	next := newTableState()
	next.version = st.version + 1
	next.rows = st.rows
	next.syn = st.syn
	next.ascending = st.ascending
	ix := &Index{Name: name, Cols: positions, Tree: btree.New()}
	for id, row := range st.rows {
		ix.Tree.Insert(ix.key(row), int64(id))
	}
	next.indexes = append(append([]*Index(nil), st.indexes...), ix)
	return next
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

// CreateIndex builds a B+tree index over the named columns. Existing
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

// key builds the index key for a row.
func (ix *Index) key(row []Value) []byte {
	var k []byte
	for _, c := range ix.Cols {
		k = encodeValue(k, row[c])
	}
	return k
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

// hash returns (building on demand) the transient hash index for a
// column: the executor's hash-join build side. This unaccounted form
// serves the planner's cost estimation; execution paths go through
// hashFor so builds are charged to the running statement.
func (st *tableState) hash(col int) map[string][]int64 {
	m, _, _, err := st.hashFor(col, hashScope{}, nil)
	if err != nil {
		// With a nil accountant the only failure mode is an armed
		// failpoint; planner-side estimation has no error path, so an
		// injected build fault surfaces through the statement panic
		// boundary instead.
		panic(err)
	}
	return m
}

// hashScope restricts a hash build, or a scoped run (deweyRun), to the
// rows whose column col holds a key of keys: the rows a step's key test
// (resolve.go) admits. The zero scope (nil keys) admits every row.
type hashScope struct {
	col  int
	keys *keySet
}

func (sc hashScope) admits(row []Value) bool {
	if sc.keys == nil {
		return true
	}
	v := row[sc.col]
	if v.Kind != KInt {
		return false
	}
	_, ok := sc.keys.has[v.I]
	return ok
}

// scopedKey addresses one restricted build in tableState.scopedHash, or
// one run in scopedRun.
type scopedKey struct {
	col int
	in  hashScope
}

// hashFor returns the transient hash index for a column over the rows
// the scope in admits, building it on demand over this state's
// immutable rows.
// The build walks the rows in id order, so every bucket lists its row
// ids ascending. A build is charged to the statement's accountant and
// aborts (without publishing a partial map) when the memory budget is
// exceeded; built reports whether this call performed the build (so
// callers can re-check deadlines after a long one) and bytes the
// amount it charged, for attribution to the probing operator's
// OpStats. The "engine/hash-build" failpoint fires on every access,
// built or cached, making the hash path's error handling injectable
// regardless of which statement performed the build.
func (st *tableState) hashFor(col int, in hashScope, ac *accountant) (m map[string][]int64, built bool, bytes int64, err error) {
	if err := failpoint.Inject("engine/hash-build"); err != nil {
		return nil, false, 0, err
	}
	st.hashMu.Lock()
	defer st.hashMu.Unlock()
	sk := scopedKey{col: col, in: in}
	if in.keys == nil {
		if m, ok := st.hashIdx[col]; ok {
			return m, false, 0, nil
		}
		m = make(map[string][]int64, len(st.rows))
	} else {
		if m, ok := st.scopedHash[sk]; ok {
			return m, false, 0, nil
		}
		m = make(map[string][]int64)
	}
	var buf []byte
	for id, row := range st.rows {
		if in.admits(row) {
			buf = encodeValue(buf[:0], row[col])
			key := string(buf)
			ids, ok := m[key]
			if !ok {
				bytes += int64(len(key)) + mapEntryBytes
			}
			bytes += 8 // one row id
			m[key] = append(ids, int64(id))
		}
		if id&0x3FF == 0x3FF {
			// Abort an over-budget build mid-way rather than after
			// materializing the whole side.
			if err := ac.wouldExceed(bytes); err != nil {
				return nil, false, 0, err
			}
		}
	}
	if err := ac.growBytes(bytes); err != nil {
		return nil, false, 0, err
	}
	if in.keys != nil {
		if st.scopedHash == nil || len(st.scopedHash) >= maxResolveMemo {
			st.scopedHash = make(map[scopedKey]map[string][]int64)
		}
		st.scopedHash[sk] = m
		return m, true, bytes, nil
	}
	max := 0
	for _, ids := range m {
		if len(ids) > max {
			max = len(ids)
		}
	}
	st.hashIdx[col] = m
	st.hashMax[col] = max
	return m, true, bytes, nil
}

// deweyRun is a scoped run: the rows a key set admits (hashScope) that
// hold a byte string in one column, the Dewey position an ancestor or
// descendant-window step compares, ordered by that column (equal values
// by row id). lens lists, ascending, the lengths of the values present.
type deweyRun struct {
	ids  []int64
	lens []int
}

// runFor returns the scoped run of column col over the rows the scope
// in admits, building it on demand over this state's immutable rows
// under the discipline of hashFor: the "engine/hash-build" failpoint
// fires on every access, the build is charged to the accountant (8
// bytes a row id) and aborts over budget without publishing, and built
// and charged report what this call built and charged. Rows in id
// order are already in column order where the column ascends;
// otherwise the run is sorted once.
func (st *tableState) runFor(col int, in hashScope, ac *accountant) (r *deweyRun, built bool, charged int64, err error) {
	if err := failpoint.Inject("engine/hash-build"); err != nil {
		return nil, false, 0, err
	}
	st.hashMu.Lock()
	defer st.hashMu.Unlock()
	sk := scopedKey{col: col, in: in}
	if r, ok := st.scopedRun[sk]; ok {
		return r, false, 0, nil
	}
	r = &deweyRun{}
	var present []bool // by value length
	for id, row := range st.rows {
		if v := row[col]; v.Kind == KBytes && in.admits(row) {
			r.ids = append(r.ids, int64(id))
			charged += 8
			for len(present) <= len(v.B) {
				present = append(present, false)
			}
			present[len(v.B)] = true
		}
		if id&0x3FF == 0x3FF {
			if err := ac.wouldExceed(charged); err != nil {
				return nil, false, 0, err
			}
		}
	}
	if err := ac.growBytes(charged); err != nil {
		return nil, false, 0, err
	}
	if !st.ascending[col] {
		rows := st.rows
		slices.SortStableFunc(r.ids, func(a, b int64) int { return bytes.Compare(rows[a][col].B, rows[b][col].B) })
	}
	for n, ok := range present {
		if ok {
			r.lens = append(r.lens, n)
		}
	}
	if st.scopedRun == nil || len(st.scopedRun) >= maxResolveMemo {
		st.scopedRun = make(map[scopedKey]*deweyRun)
	}
	st.scopedRun[sk] = r
	return r, true, charged, nil
}

// hashMaxBucket returns the largest bucket of the column's transient
// hash index (building it if needed) — the planner's worst-case
// estimate for a hash join probe.
func (st *tableState) hashMaxBucket(col int) int {
	st.hash(col)
	st.hashMu.Lock()
	defer st.hashMu.Unlock()
	return st.hashMax[col]
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
	return Stats{Rows: len(st.rows), Indexes: len(st.indexes)}
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
		out[i] = fmt.Sprintf("%s=%d", n, len(snap.stateOf(snap.byName[n]).rows))
	}
	return out
}
