// Persistence: the write-ahead-log integration making every commit
// durable. A persistent database (engine.Open) logs each mutation as
// one WAL record — fsynced before the commit becomes visible to
// readers (DB.commit, table.go) — and recovers on open by loading the
// latest checkpoint and replaying the WAL's valid prefix through that
// same function. In-memory databases (NewDB) have a nil persister and
// skip logging entirely.
//
// Record payloads (the WAL frames the payload with length/CRC/LSN,
// wal.go):
//
//	kind 1  create table:  name, ncols, (colName, colType)*
//	kind 2  insert batch:  ngroups, (tableName, nrows, row*)*
//	kind 3  create index:  tableName, indexName, ncols, colName*
//	kind 4  base LSN:      lsn — first record of a checkpoint file;
//	                       replay skips WAL records at or below it
//
// Strings are uvarint-length-prefixed; values are a kind byte plus a
// kind-specific body. A checkpoint file is written with the same
// framing as the WAL (CRC-checked records) but is atomic by
// construction: it is fully written and fsynced under a temporary
// name, renamed into place, and the directory fsynced, so recovery
// sees either the old or the new checkpoint, never a partial one.
package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"unsafe"

	"repro/internal/failpoint"
	"repro/internal/wal"
)

const (
	recCreateTable = 1
	recInsert      = 2
	recCreateIndex = 3
	recBaseLSN     = 4

	walFile  = "wal.log"
	ckptFile = "checkpoint"
)

// persister is a DB's durability hook: the open WAL plus the
// directory it (and the checkpoint) live in.
type persister struct {
	dir string
	log *wal.Log
}

// Open opens a persistent database in dir, creating the directory if
// needed. Recovery loads the checkpoint (if any), replays the WAL's
// valid prefix on top of it, and truncates any torn or corrupt WAL
// tail; a crash at any earlier moment therefore yields exactly the
// committed prefix. Re-running recovery over the same files is
// idempotent: checkpointed records are skipped by LSN and the replay
// rebuilds identical state. What Open creates — the directory, the WAL
// file — it makes durable before returning: it fsyncs the directory
// holding each new entry, so a commit acknowledged before the first
// checkpoint cannot lose its log with the entry. Reopening an existing
// store syncs nothing.
func Open(dir string) (*DB, error) {
	_, err := os.Stat(dir)
	newDir := os.IsNotExist(err)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if newDir {
		if err := syncDir(filepath.Dir(filepath.Clean(dir)), "engine/open-dirsync"); err != nil {
			return nil, err
		}
	}
	// db.pers stays nil until recovery is done: replayed records are
	// committed like live ones, minus the log step.
	db := NewDB()
	var baseLSN uint64
	ckpt := filepath.Join(dir, ckptFile)
	if _, err := os.Stat(ckpt); err == nil {
		if err := wal.Scan(ckpt, func(rec wal.Record) error {
			if lsn, ok := decodeBaseLSN(rec.Payload); ok {
				baseLSN = lsn
				return nil
			}
			return db.replay(rec.Payload)
		}); err != nil {
			return nil, fmt.Errorf("engine: recovering checkpoint: %w", err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	walPath := filepath.Join(dir, walFile)
	_, err = os.Stat(walPath)
	newWAL := os.IsNotExist(err)
	log, err := wal.Open(walPath, func(rec wal.Record) error {
		if rec.LSN <= baseLSN {
			// Already captured by the checkpoint: a crash between the
			// checkpoint rename and the WAL reset leaves these behind.
			return nil
		}
		if err := failpoint.Inject("engine/recovery-replay"); err != nil {
			return err
		}
		return db.replay(rec.Payload)
	})
	if err != nil {
		return nil, fmt.Errorf("engine: recovering WAL: %w", err)
	}
	if newWAL {
		if err := syncDir(dir, "engine/open-dirsync"); err != nil {
			_ = log.Close()
			return nil, err
		}
	}
	// A freshly reset (empty) WAL must not hand out LSNs at or below
	// the checkpoint's base: the next recovery would skip them.
	log.EnsureNext(baseLSN + 1)
	db.pers = &persister{dir: dir, log: log}
	return db, nil
}

// replay commits one mutation read back from a checkpoint or WAL
// record, so a recovered DB is structurally identical to one that
// executed the statements directly.
func (db *DB) replay(payload []byte) error {
	m, err := decodeMutation(payload)
	if err != nil {
		return err
	}
	_, err = db.commit(m)
	return err
}

// Close releases the database's WAL file handle (fsyncing it first).
// It is a no-op for in-memory databases. The DB must not be used
// after Close.
func (db *DB) Close() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.pers == nil {
		return nil
	}
	err := db.pers.log.Close()
	db.pers = nil
	return err
}

// Persistent reports whether the database is backed by a WAL.
func (db *DB) Persistent() bool {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	return db.pers != nil
}

// Checkpoint captures the current database state into an atomically
// replaced checkpoint file and truncates the WAL, bounding recovery
// time. Readers are unaffected (the snapshot is immutable); writers
// wait, as they do for any commit. A crash at any point leaves a
// recoverable pair: old checkpoint + full WAL, new checkpoint + full
// WAL (replay skips by LSN), or new checkpoint + empty WAL.
func (db *DB) Checkpoint() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.pers == nil {
		return fmt.Errorf("engine: Checkpoint on an in-memory database")
	}
	// A poisoned log refuses here, before the old checkpoint is replaced.
	if err := db.pers.log.Sync(); err != nil {
		return err
	}
	snap := db.loadSnap()
	tmp := filepath.Join(db.pers.dir, ckptFile+".tmp")
	if err := writeCheckpoint(tmp, snap, db.pers.log.LastLSN()); err != nil {
		return err
	}
	//xvet:ignore lockscope -- crash-window failpoint: the checkpoint protocol runs entirely under writeMu by design, and the chaos suite arms this site precisely to model a writer stalled mid-checkpoint
	if err := failpoint.Inject("wal/checkpoint"); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(db.pers.dir, ckptFile)); err != nil {
		return err
	}
	if err := syncDir(db.pers.dir, "engine/checkpoint-dirsync"); err != nil {
		return err
	}
	return db.pers.log.Reset()
}

// writeCheckpoint writes the snapshot as a fresh CRC-framed record
// file at path and fsyncs it. The first record carries the base LSN.
func writeCheckpoint(path string, snap *dbSnap, baseLSN uint64) (err error) {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	ck, err := wal.Open(path, nil)
	if err != nil {
		return err
	}
	defer func() {
		// Close syncs; its error stands in for the whole write — a
		// checkpoint that might not be on disk must not be renamed in.
		if cerr := ck.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err := ck.Append(encodeBaseLSN(baseLSN)); err != nil {
		return err
	}
	for _, name := range snap.names {
		t := snap.byName[name]
		st := snap.stateOf(t)
		recs := [][]byte{createTable{name: t.Name, cols: t.Cols}.encode()}
		// Insert records in checkpoint-internal batches: bounded frame
		// sizes without one frame per row.
		const ckptBatch = 4096
		for lo := 0; lo < st.n; lo += ckptBatch {
			recs = append(recs, encodeRows(t.Name, st, lo, min(lo+ckptBatch, st.n)))
		}
		for _, ix := range st.indexes {
			cols := make([]string, len(ix.Cols))
			for i, c := range ix.Cols {
				cols[i] = t.Cols[c].Name
			}
			recs = append(recs, createIndex{table: t.Name, index: ix.Name, cols: cols}.encode())
		}
		for _, rec := range recs {
			if _, err := ck.Append(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// syncDir fsyncs a directory so an entry created or renamed in it is
// durable. The named failpoint fails it before the fsync:
// "engine/checkpoint-dirsync", a checkpoint renamed in whose rename may
// not be durable, with the WAL not yet reset; "engine/open-dirsync", a
// store directory or WAL file Open created whose entry may not be.
func syncDir(dir, site string) error {
	if err := failpoint.Inject(site); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// logRecord is commit's log step: the mutation's record is appended
// and fsynced before commit publishes. A database with no persister
// attached — in-memory, or still recovering — has nothing to log to.
func (db *DB) logRecord(m mutation) error {
	if db.pers == nil {
		return nil
	}
	_, err := db.pers.log.Commit(m.encode())
	return err
}

// WriteBatch buffers inserts across tables for one atomic commit: a
// single WAL record, a single fsync, a single published snapshot.
// Readers observe all of the batch or none of it — the unit shred
// loaders use so a document's node, path, and attribute rows appear
// together. A WriteBatch is single-goroutine; Commit may be called
// once.
type WriteBatch struct {
	db     *DB
	groups insertRows     // in order of each table's first Insert
	slot   map[*Table]int // table -> index in groups
	err    error
}

// NewWriteBatch starts an empty batch against the database.
func (db *DB) NewWriteBatch() *WriteBatch {
	return &WriteBatch{db: db, slot: map[*Table]int{}}
}

// Insert buffers one row for t, which must be a table of the batch's
// database. Validation errors are sticky and returned from Commit
// (and from the first failing Insert).
func (b *WriteBatch) Insert(t *Table, row []Value) error {
	if b.err != nil {
		return b.err
	}
	if t.db != b.db {
		b.err = fmt.Errorf("engine: table handle %q belongs to another database", t.Name)
		return b.err
	}
	if err := t.validateRow(row); err != nil {
		b.err = err
		return err
	}
	i, ok := b.slot[t]
	if !ok {
		i = len(b.groups)
		b.slot[t] = i
		b.groups = append(b.groups, insertGroup{table: t.Name, checked: t})
	}
	b.groups[i].rows = append(b.groups[i].rows, row)
	return nil
}

// Pending returns the number of rows buffered so far.
func (b *WriteBatch) Pending() int {
	n := 0
	for _, g := range b.groups {
		n += len(g.rows)
	}
	return n
}

// NextID returns the row id the next Insert into t will be assigned —
// stable within the batch because the batch's writer has exclusive
// append rights only at Commit, but loaders run single-writer so the
// preview holds. Concurrent writers between Insert and Commit would
// shift ids; the engine's loaders never do that.
func (b *WriteBatch) NextID(t *Table) int64 {
	n := int64(t.state().n)
	if i, ok := b.slot[t]; ok {
		n += int64(len(b.groups[i].rows))
	}
	return n
}

// Commit logs and applies the batch atomically, then resets the batch
// to empty for reuse. An empty batch commits as a no-op.
func (b *WriteBatch) Commit() error {
	if b.err != nil {
		return b.err
	}
	if len(b.groups) == 0 {
		return nil
	}
	if _, err := b.db.commit(b.groups); err != nil {
		return err
	}
	b.groups, b.slot = nil, map[*Table]int{}
	return nil
}

// --- record encoding ---

func encodeBaseLSN(lsn uint64) []byte {
	buf := make([]byte, 1, 1+binary.MaxVarintLen64)
	buf[0] = recBaseLSN
	return binary.AppendUvarint(buf, lsn)
}

func decodeBaseLSN(payload []byte) (uint64, bool) {
	if len(payload) == 0 || payload[0] != recBaseLSN {
		return 0, false
	}
	lsn, n := binary.Uvarint(payload[1:])
	if n <= 0 {
		return 0, false
	}
	return lsn, true
}

func (m createTable) encode() []byte {
	buf := []byte{recCreateTable}
	buf = appendStr(buf, m.name)
	buf = binary.AppendUvarint(buf, uint64(len(m.cols)))
	for _, c := range m.cols {
		buf = appendStr(buf, c.Name)
		buf = append(buf, byte(c.Type))
	}
	return buf
}

func (m createIndex) encode() []byte {
	buf := []byte{recCreateIndex}
	buf = appendStr(buf, m.table)
	buf = appendStr(buf, m.index)
	buf = binary.AppendUvarint(buf, uint64(len(m.cols)))
	for _, c := range m.cols {
		buf = appendStr(buf, c)
	}
	return buf
}

func (m insertRows) encode() []byte {
	buf := []byte{recInsert}
	buf = binary.AppendUvarint(buf, uint64(len(m)))
	for _, g := range m {
		buf = appendStr(buf, g.table)
		if g.rec != nil {
			buf = binary.AppendUvarint(buf, uint64(g.n))
			buf = append(buf, g.rec...)
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(len(g.rows)))
		for _, row := range g.rows {
			buf = binary.AppendUvarint(buf, uint64(len(row)))
			for _, v := range row {
				buf = appendValue(buf, v)
			}
		}
	}
	return buf
}

// encodeRows renders rows lo to hi-1 of st, read from its columns, as
// the record insertRows.encode gives one group of those rows into
// table.
func encodeRows(table string, st *tableState, lo, hi int) []byte {
	buf := binary.AppendUvarint([]byte{recInsert}, 1)
	buf = appendStr(buf, table)
	buf = binary.AppendUvarint(buf, uint64(hi-lo))
	for id := int64(lo); id < int64(hi); id++ {
		buf = binary.AppendUvarint(buf, uint64(len(st.cols)))
		for j := range st.cols {
			buf = appendValue(buf, st.cols[j].value(id))
		}
	}
	return buf
}

// decodeMutation is the inverse of the three encode methods. A decoded
// insert keeps each group's rows encoded, as a slice of payload that
// applyInsert decodes straight into the columns: payload must stay
// unchanged until the mutation is committed.
func decodeMutation(payload []byte) (mutation, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("empty record")
	}
	d := &recDecoder{buf: payload[1:]}
	var m mutation
	switch payload[0] {
	case recCreateTable:
		ct := createTable{name: d.str()}
		n := d.uvarint()
		ct.cols = make([]Column, 0, min(int(n), 1024))
		for i := uint64(0); i < n && d.err == nil; i++ {
			ct.cols = append(ct.cols, Column{Name: d.str(), Type: Type(d.byte())})
		}
		m = ct
	case recInsert:
		ng := d.uvarint()
		groups := make(insertRows, 0, min(int(ng), 64))
		for gi := uint64(0); gi < ng && d.err == nil; gi++ {
			g := insertGroup{table: d.str()}
			nr, rec := d.uvarint(), d.buf
			// The rows are walked here only to find where the group ends
			// (and that it does): a value decodes to views of payload,
			// allocating nothing.
			for ri := uint64(0); ri < nr && d.err == nil; ri++ {
				for nv := d.uvarint(); nv > 0 && d.err == nil; nv-- {
					d.value()
				}
				g.n++
			}
			g.rec = rec[:len(rec)-len(d.buf)]
			groups = append(groups, g)
		}
		m = groups
	case recCreateIndex:
		ci := createIndex{table: d.str(), index: d.str()}
		n := d.uvarint()
		ci.cols = make([]string, 0, min(int(n), 1024))
		for i := uint64(0); i < n && d.err == nil; i++ {
			ci.cols = append(ci.cols, d.str())
		}
		m = ci
	default:
		return nil, fmt.Errorf("unknown record kind %d", payload[0])
	}
	return m, d.done()
}

// appendValue encodes one Value: kind byte + kind-specific body.
func appendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.Kind))
	switch v.Kind {
	case KNull:
	case KInt, KBool:
		buf = binary.AppendVarint(buf, v.I)
	case KFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
	case KText:
		buf = appendStr(buf, v.S)
	case KBytes:
		buf = binary.AppendUvarint(buf, uint64(len(v.B)))
		buf = append(buf, v.B...)
	}
	return buf
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// recDecoder is a cursor over a record payload with sticky errors:
// decoding continues returning zero values after the first failure
// and done() reports it, so record readers stay linear.
type recDecoder struct {
	buf []byte
	err error
}

func (d *recDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("truncated record body")
	}
}

func (d *recDecoder) byte() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *recDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *recDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *recDecoder) take(n int) []byte {
	if d.err != nil || n < 0 || len(d.buf) < n {
		d.fail()
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *recDecoder) str() string {
	n := d.uvarint()
	return string(d.take(int(n)))
}

func (d *recDecoder) value() Value {
	switch Kind(d.byte()) {
	case KNull:
		return Null
	case KInt:
		return NewInt(d.varint())
	case KBool:
		return NewBool(d.varint() != 0)
	case KFloat:
		bits := d.take(8)
		if d.err != nil {
			return Null
		}
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(bits)))
	case KText:
		b := d.take(int(d.uvarint()))
		if d.err != nil || len(b) == 0 {
			return NewText("")
		}
		return NewText(unsafe.String(&b[0], len(b)))
	case KBytes:
		n := d.uvarint()
		b := d.take(int(n))
		if d.err != nil {
			return Null
		}
		return NewBytes(b[:n:n])
	default:
		d.fail()
		return Null
	}
}

func (d *recDecoder) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("trailing %d byte(s) in record", len(d.buf))
	}
	return nil
}
