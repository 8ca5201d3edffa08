package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/dewey"
	"repro/internal/failpoint"
	"repro/internal/synopsis"
	"repro/internal/wal"
)

// The crash suite simulates kill -9 at the durability failpoints: a
// write fails at the armed site, the DB handle is abandoned without
// Close (no final fsync, exactly what a killed process leaves), and
// recovery reopens the directory from the surviving files. The
// recovered database must always be some atomic prefix of the commit
// history — for each site the tests pin down which prefix — and a
// second recovery over the same files must be byte-identical
// (idempotent replay).

var errCrash = errors.New("injected crash")

// seedPersistent creates a persistent DB in dir with a table, an
// index, and two committed batches; it returns the open handle.
func seedPersistent(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("T",
		Column{"id", TInt}, Column{"dewey_pos", TBytes}, Column{"text", TText})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateIndex("T_dp", "dewey_pos"); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		rows := make([][]Value, 10)
		for i := range rows {
			n := b*10 + i
			rows[i] = []Value{NewInt(int64(n)), NewBytes(dewey.New(1, b+1, i+1)), NewText(fmt.Sprint(n))}
		}
		if _, err := tb.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// dump renders the full content of table T in a canonical order.
func dump(t *testing.T, db *DB) string {
	t.Helper()
	res, err := runSQL(db, "SELECT T.id, T.text FROM T ORDER BY T.id")
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, r := range res.Rows {
		out += fmt.Sprintf("%d=%s;", r[0].I, r[1].S)
	}
	return out
}

// TestCrashAtEverySite arms each durability failpoint, drives a write
// into it, abandons the handle, and recovers. The recovered state
// must be exactly the pre-write state for failures before the WAL
// frame reaches the file (wal/append), and either pre- or post-write
// for failures after the bytes were written but before they were
// acknowledged (wal/fsync) — the write-ahead contract promises
// acknowledged-implies-present, not unacknowledged-implies-absent.
// A second commit on the same handle then either fails with
// wal.ErrPoisoned (bytes may have reached the file: the log is fail
// stop, and so is Checkpoint) or, where nothing was written
// (wal/append), succeeds and must survive recovery like any
// acknowledged write.
func TestCrashAtEverySite(t *testing.T) {
	newRow := [][]Value{{NewInt(100), NewBytes(dewey.New(1, 9, 1)), NewText("late")}}
	second := [][]Value{{NewInt(101), NewBytes(dewey.New(1, 9, 2)), NewText("second")}}
	for _, tc := range []struct {
		site string
		// postOK: recovery may legitimately surface the failed write,
		// and the handle is poisoned.
		postOK bool
	}{
		{site: "wal/append", postOK: false},
		{site: "wal/fsync", postOK: true},
	} {
		t.Run(tc.site, func(t *testing.T) {
			defer failpoint.Reset()
			dir := t.TempDir()
			db := seedPersistent(t, dir)
			pre := dump(t, db)

			if err := failpoint.Enable(tc.site, failpoint.Return(errCrash)); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Table("T").InsertBatch(newRow); !errors.Is(err, errCrash) {
				t.Fatalf("insert at armed %s: err = %v, want injected crash", tc.site, err)
			}
			// The failed commit must not be visible in the live DB either.
			if got := dump(t, db); got != pre {
				t.Fatalf("failed commit leaked into the live snapshot:\n%s\nwant %s", got, pre)
			}
			failpoint.Reset()
			_, err := db.Table("T").InsertBatch(second)
			post := pre + "100=late;"
			if tc.postOK {
				if !errors.Is(err, wal.ErrPoisoned) {
					t.Fatalf("second commit after failed %s: err = %v, want wal.ErrPoisoned", tc.site, err)
				}
				if err := db.Checkpoint(); !errors.Is(err, wal.ErrPoisoned) {
					t.Fatalf("checkpoint after failed %s: err = %v, want wal.ErrPoisoned", tc.site, err)
				}
				if got := dump(t, db); got != pre {
					t.Fatalf("refused commit leaked into the live snapshot:\n%s\nwant %s", got, pre)
				}
			} else {
				if err != nil {
					t.Fatalf("second commit after failed %s: %v", tc.site, err)
				}
				pre += "101=second;"
			}
			// Crash: abandon db without Close, recover from the files.
			re, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			got := dump(t, re)
			switch {
			case got == pre: // clean pre-write recovery
			case tc.postOK && got == post: // unacknowledged write survived: allowed
			default:
				t.Fatalf("recovered state:\n%s\nwant pre %q%s", got, pre,
					map[bool]string{true: " or post " + post}[tc.postOK])
			}
			// The recovered DB accepts and persists new commits.
			if _, err := re.Table("T").InsertBatch([][]Value{
				{NewInt(200), NewBytes(dewey.New(1, 9, 2)), NewText("after")},
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrashDuringCheckpoint arms the wal/checkpoint failpoint (after
// the temporary checkpoint is fully written, before the rename) and
// checks that recovery still sees every commit via the old
// checkpoint + full WAL, ignoring the leftover .tmp file.
func TestCrashDuringCheckpoint(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	db := seedPersistent(t, dir)
	pre := dump(t, db)

	if err := failpoint.Enable("wal/checkpoint", failpoint.Return(errCrash)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); !errors.Is(err, errCrash) {
		t.Fatalf("checkpoint at armed site: err = %v, want injected crash", err)
	}
	failpoint.Reset()
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.tmp")); err != nil {
		t.Fatalf("crash window left no checkpoint.tmp: %v", err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := dump(t, re); got != pre {
		t.Fatalf("recovery after torn checkpoint:\n%s\nwant %s", got, pre)
	}
	// A later successful checkpoint replaces the file and empties the
	// WAL; recovery still sees everything.
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || st.Size() != 0 {
		t.Fatalf("WAL after checkpoint: size=%v err=%v, want empty", st, err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := dump(t, re2); got != pre {
		t.Fatalf("recovery from checkpoint alone:\n%s\nwant %s", got, pre)
	}
}

// TestCrashDuringCheckpointPublish fails each step after the new
// checkpoint is renamed in: the directory fsync that makes the rename
// durable (engine/checkpoint-dirsync), and the WAL reset (wal/reset, a
// write failure, so it poisons the log). After a failed reset the handle
// is fail stop: every later write, and Checkpoint, is refused with
// wal.ErrPoisoned. After a failed directory sync the WAL was not reset,
// so the handle keeps committing. Either way, closing and reopening
// the directory recovers the live state — rows, index contents and
// synopses — including rows acknowledged after the failure.
func TestCrashDuringCheckpointPublish(t *testing.T) {
	late := [][]Value{{NewInt(100), NewBytes(dewey.New(1, 9, 1)), NewText("late")}}
	for _, tc := range []struct {
		site     string
		poisoned bool
	}{
		{site: "engine/checkpoint-dirsync"},
		{site: "wal/reset", poisoned: true},
	} {
		t.Run(tc.site, func(t *testing.T) {
			defer failpoint.Reset()
			dir := t.TempDir()
			db := seedPersistent(t, dir)
			if err := failpoint.Enable(tc.site, failpoint.Return(errCrash)); err != nil {
				t.Fatal(err)
			}
			if err := db.Checkpoint(); !errors.Is(err, errCrash) {
				t.Fatalf("checkpoint at armed %s: err = %v, want injected crash", tc.site, err)
			}
			failpoint.Reset()
			if _, err := os.Stat(filepath.Join(dir, ckptFile)); err != nil {
				t.Fatalf("the new checkpoint was not renamed in: %v", err)
			}
			_, insertErr := db.Table("T").InsertBatch(late)
			_, createErr := db.CreateTable("U", Column{"id", TInt})
			if tc.poisoned {
				for op, err := range map[string]error{"insert": insertErr, "create table": createErr, "checkpoint": db.Checkpoint()} {
					if !errors.Is(err, wal.ErrPoisoned) {
						t.Errorf("%s after a failed %s: err = %v, want wal.ErrPoisoned", op, tc.site, err)
					}
				}
			} else if insertErr != nil || createErr != nil {
				t.Fatalf("writes after a failed %s: %v, %v; the WAL was not reset, so they must commit", tc.site, insertErr, createErr)
			}
			if err := db.Close(); (err != nil) != tc.poisoned {
				t.Fatalf("close after a failed %s: %v", tc.site, err)
			}
			re, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			requireSameState(t, db, re)
			if got := len(re.Table("T").Rows()); got != map[bool]int{false: 21, true: 20}[tc.poisoned] {
				t.Errorf("recovered T holds %d rows", got)
			}
		})
	}
}

// TestCrashDuringRecoveryReplay arms the engine/recovery-replay
// failpoint so recovery itself dies mid-replay (a crash during crash
// recovery). Open must fail cleanly — no panic, no partially
// recovered handle — and a later unarmed Open succeeds in full.
func TestCrashDuringRecoveryReplay(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	db := seedPersistent(t, dir)
	pre := dump(t, db)

	if err := failpoint.Enable("engine/recovery-replay", failpoint.Return(errCrash)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, errCrash) {
		t.Fatalf("recovery at armed replay site: err = %v, want injected crash", err)
	}
	failpoint.Reset()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := dump(t, re); got != pre {
		t.Fatalf("recovery after interrupted recovery:\n%s\nwant %s", got, pre)
	}
}

// TestOpenDirSync arms engine/open-dirsync, the directory fsyncs that
// make what Open creates durable: the store directory's entry in its
// parent, then the WAL file's entry in the store directory. Open on a
// fresh path fails at the first; once the directory exists but the
// WAL does not, at the second. Open on an existing store never reaches
// the site, so reopening pays no fsync.
func TestOpenDirSync(t *testing.T) {
	defer failpoint.Reset()
	const site = "engine/open-dirsync"
	dir := filepath.Join(t.TempDir(), "store")
	if err := failpoint.Enable(site, failpoint.Return(errCrash)); err != nil {
		t.Fatal(err)
	}
	for i, created := range []string{"directory", "WAL"} {
		if _, err := Open(dir); !errors.Is(err, errCrash) {
			t.Fatalf("Open creating the %s at armed %s: err = %v, want injected crash", created, site, err)
		}
		if got := failpoint.Hits(site); got != int64(i+1) {
			t.Fatalf("after Open creating the %s: %s reached %d times, want %d", created, site, got, i+1)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, walFile)); err != nil {
		t.Fatalf("the failed Open left no WAL: %v", err)
	}

	if err := failpoint.Enable(site, failpoint.Return(errCrash)); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open of an existing store: %v", err)
	}
	if _, err := db.CreateTable("T", Column{"id", TInt}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.Table("T") == nil {
		t.Fatal("table T lost across reopen")
	}
	if got := failpoint.Hits(site); got != 0 {
		t.Fatalf("Open of an existing store reached %s %d times, want 0", site, got)
	}
}

// playHistory drives a seeded random sequence of every mutation kind
// through db's public write surface: CREATE TABLE, CREATE INDEX,
// single-row and batch inserts, multi-table write batches, and one
// Checkpoint halfway.
func playHistory(t *testing.T, db *DB, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	value := func(typ Type) Value {
		if rng.Intn(10) == 0 {
			return Null
		}
		switch typ {
		case TInt:
			return NewInt(int64(rng.Intn(50)))
		case TFloat:
			if rng.Intn(4) == 0 {
				return NewInt(int64(rng.Intn(9))) // float columns accept ints
			}
			return NewFloat(float64(rng.Intn(500)) / 4)
		case TText:
			return NewText(fmt.Sprintf("s%d", rng.Intn(300)))
		}
		return NewBytes(dewey.New(1, 1+rng.Intn(3), 1+rng.Intn(400)))
	}
	rows := func(tb *Table, n int) [][]Value {
		out := make([][]Value, n)
		for i := range out {
			out[i] = make([]Value, len(tb.Cols))
			for j, c := range tb.Cols {
				out[i][j] = value(c.Type)
			}
		}
		return out
	}
	pick := func() *Table {
		names := db.TableNames()
		return db.Table(names[rng.Intn(len(names))])
	}
	indexes := 0
	for step := 0; step < steps; step++ {
		var err error
		op := rng.Intn(6)
		switch n := len(db.TableNames()); {
		case step == steps/2:
			err = db.Checkpoint()
		case n == 0 || op == 0 && n < 5:
			cols := make([]Column, 1+rng.Intn(4))
			for i := range cols {
				cols[i] = Column{fmt.Sprintf("c%d", i), []Type{TInt, TFloat, TText, TBytes}[rng.Intn(4)]}
			}
			_, err = db.CreateTable(fmt.Sprintf("t%d", n), cols...)
		case op == 1:
			tb := pick()
			cols := []string{tb.Cols[rng.Intn(len(tb.Cols))].Name}
			if rng.Intn(2) == 0 {
				cols = append(cols, tb.Cols[rng.Intn(len(tb.Cols))].Name)
			}
			indexes++
			_, err = tb.CreateIndex(fmt.Sprintf("ix%d", indexes), cols...)
		case op == 2:
			tb := pick()
			_, err = tb.Insert(rows(tb, 1)[0])
		case op == 3:
			tb := pick()
			_, err = tb.InsertBatch(rows(tb, 1+rng.Intn(20)))
		default:
			b := db.NewWriteBatch()
			for i := 1 + rng.Intn(12); i > 0 && err == nil; i-- {
				tb := pick()
				err = b.Insert(tb, rows(tb, 1)[0])
			}
			if err == nil {
				err = b.Commit()
			}
		}
		if err != nil {
			t.Fatalf("history seed %d step %d: %v", seed, step, err)
		}
	}
}

// encodedKey returns row id's index key as ix encodes it (encodeValue).
func encodedKey(ix *Index, id int64) []byte {
	var k []byte
	for _, v := range ix.keyOf(nil, id) {
		k = encodeValue(k, v)
	}
	return k
}

// dumpDB renders every table's schema, rows and index contents.
func dumpDB(db *DB) string {
	var b strings.Builder
	for _, name := range db.TableNames() {
		tb := db.Table(name)
		fmt.Fprintf(&b, "table %s %v\n", name, tb.Cols)
		for id, row := range tb.Rows() {
			fmt.Fprintf(&b, " %d:", id)
			for _, v := range row {
				fmt.Fprintf(&b, " %d/%d/%g/%q/%x", v.Kind, v.I, v.F, v.S, v.B)
			}
			b.WriteByte('\n')
		}
		for _, ix := range tb.Indexes() {
			fmt.Fprintf(&b, " index %s %v:", ix.Name, ix.Cols)
			for r, i := ix.run(0, ix.len()), 0; i < r.hi; i++ {
				fmt.Fprintf(&b, " %x=%d", encodedKey(ix, r.at(i)), r.at(i))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// requireSameState fails unless got holds exactly want's tables, rows,
// index contents and synopses, and got's index runs order its rows.
func requireSameState(t *testing.T, want, got *DB) {
	t.Helper()
	if w, g := dumpDB(want), dumpDB(got); w != g {
		t.Fatalf("recovered state differs from live:\n%s\nwant\n%s", g, w)
	}
	requireRunsOrderRows(t, got)
	for _, name := range want.TableNames() {
		if w, g := want.Table(name).Synopsis(), got.Table(name).Synopsis(); !synopsis.Equal(w, g) {
			t.Fatalf("table %s: recovered synopsis %s, live %s", name, g, w)
		}
	}
}

// TestDoubleReplayIdempotence recovers the same directory twice (and
// once more after a checkpoint, so replay crosses the skip-by-LSN
// path) and requires identical state each time — on the fixed seed
// store, then on random histories, where "identical" covers every
// table's rows, index contents and synopsis.
func TestDoubleReplayIdempotence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("history-%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			playHistory(t, db, seed, 80)
			for i := 0; i < 2; i++ {
				re, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				requireSameState(t, db, re)
			}
		})
	}

	dir := t.TempDir()
	db := seedPersistent(t, dir)
	want := dump(t, db)
	// Abandon without Close: the WAL is already fsynced per commit.

	for i := 0; i < 2; i++ {
		re, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := dump(t, re); got != want {
			t.Fatalf("replay %d:\n%s\nwant %s", i+1, got, want)
		}
		// Abandon again, no Close.
		_ = re
	}

	// Checkpoint, then append one more commit; replay now mixes
	// checkpointed and post-checkpoint records.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Table("T").InsertBatch([][]Value{
		{NewInt(300), NewBytes(dewey.New(1, 9, 3)), NewText("tail")},
	}); err != nil {
		t.Fatal(err)
	}
	want = dump(t, re)
	for i := 0; i < 2; i++ {
		re2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := dump(t, re2); got != want {
			t.Fatalf("post-checkpoint replay %d:\n%s\nwant %s", i+1, got, want)
		}
	}
}

// requireRunsOrderRows fails unless every index of db is its rows'
// ids sorted stably by key (checkRunOrder).
func requireRunsOrderRows(t *testing.T, db *DB) {
	t.Helper()
	for _, name := range db.TableNames() {
		for _, ix := range db.Table(name).Indexes() {
			if err := checkRunOrder(name, ix); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkRunOrder reports, naming the table and the row ids, where ix's
// run is not its rows' ids sorted stably by key, where it stores no run
// but row order is not key order, or where its distinct-key count is
// not the rows'.
func checkRunOrder(table string, ix *Index) error {
	keys := make([][]byte, ix.n)
	want := make([]int64, ix.n)
	for id := range want {
		keys[id], want[id] = encodedKey(ix, int64(id)), int64(id)
	}
	slices.SortStableFunc(want, func(a, b int64) int { return bytes.Compare(keys[a], keys[b]) })
	if ix.len() != len(want) {
		return fmt.Errorf("table %s index %s: run of %d ids over %d rows", table, ix.Name, ix.len(), len(want))
	}
	distinct := 0
	for i, r := 0, ix.run(0, ix.len()); i < len(want); i++ {
		if got := r.at(i); got != want[i] && ix.ids == nil {
			return fmt.Errorf("table %s index %s stores no run, but row %d's key sorts at position %d, before row %d's", table, ix.Name, want[i], i, got)
		} else if got != want[i] {
			return fmt.Errorf("table %s index %s: run holds row %d at position %d, where row %d belongs", table, ix.Name, got, i, want[i])
		}
		if i == 0 || !bytes.Equal(keys[want[i-1]], keys[want[i]]) {
			distinct++
		}
	}
	if ix.keys != distinct {
		return fmt.Errorf("table %s index %s counts %d distinct keys, its rows hold %d", table, ix.Name, ix.keys, distinct)
	}
	return nil
}

// TestCheckRunOrderRejects: a run with two of its ids swapped, or that
// claims row order over rows out of key order, is rejected with the
// table and the row ids named.
func TestCheckRunOrderRejects(t *testing.T) {
	db := NewDB()
	tb, err := db.CreateTable("T", Column{"k", TInt})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{3, 1, 2, 1} {
		tb.MustInsert(NewInt(k))
	}
	ix, err := tb.CreateIndex("T_k", "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRunOrder("T", ix); err != nil || ix.ids == nil {
		t.Fatalf("an index over rows out of key order: %v, stored run %v", err, ix.ids)
	}
	swapped := *ix
	swapped.ids = slices.Clone(ix.ids)
	swapped.ids[1], swapped.ids[2] = swapped.ids[2], swapped.ids[1]
	err = checkRunOrder("T", &swapped)
	if err == nil || !strings.Contains(err.Error(), "table T") ||
		!strings.Contains(err.Error(), fmt.Sprintf("row %d", swapped.ids[1])) || !strings.Contains(err.Error(), fmt.Sprintf("row %d", ix.ids[1])) {
		t.Errorf("swapped run: %v, want the table and rows %d and %d named", err, swapped.ids[1], ix.ids[1])
	}
	claimed := *ix
	claimed.ids = nil
	if err := checkRunOrder("T", &claimed); err == nil || !strings.Contains(err.Error(), "table T") || !strings.Contains(err.Error(), "row 1") {
		t.Errorf("row order claimed over rows out of key order: %v", err)
	}
}

// TestDoubleReplayGoldenStore pins the WAL and checkpoint byte format:
// testdata/golden_store holds the wal.log and checkpoint the commit
// before the one-commit-path refactor wrote for a fixed history, with
// the dump of the database it recovered from them. The same history
// must still produce the same bytes, and the committed files must
// still open to the same dump. (-update rewrites the directory.)
func TestDoubleReplayGoldenStore(t *testing.T) {
	golden := filepath.Join("testdata", "golden_store")
	files := []string{walFile, ckptFile}
	copyFiles := func(from, to string) {
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(from, f))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(to, f), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	playHistory(t, db, 2005, 60)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(golden, 0o755); err != nil {
			t.Fatal(err)
		}
		copyFiles(dir, golden)
		if err := os.WriteFile(filepath.Join(golden, "dump.txt"), []byte(dumpDB(db)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range files {
		got, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(golden, f))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the history now writes %d bytes that differ from the golden %d", f, len(got), len(want))
		}
	}
	// Recovery truncates a torn tail in place, so open a copy.
	cp := t.TempDir()
	copyFiles(golden, cp)
	re, err := Open(cp)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	want, err := os.ReadFile(filepath.Join(golden, "dump.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := dumpDB(re); got != string(want) {
		t.Errorf("golden store recovered to:\n%s\nwant\n%s", got, want)
	}
	requireRunsOrderRows(t, re)
}

// TestCreateIndexRecovery re-proves the paper's Lemmas 1-2 against a
// recovered index: a CREATE INDEX logged to the WAL must rebuild on
// replay with the same order-preserving comparator, so Dewey range
// predicates (descendant-or-self = BETWEEN d(m) AND d(m)||0xFF,
// Lemma 1; the first key past d(m)||0xFF is outside the subtree,
// Lemma 2) select exactly the same nodes as before the crash.
func TestCreateIndexRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("T", Column{"id", TInt}, Column{"dewey_pos", TBytes}, Column{"label", TText}, Column{"path_id", TInt})
	if err != nil {
		t.Fatal(err)
	}
	// label's keys neither ascend in row order nor are distinct, so the
	// index on it is built from sorted keys, live and in recovery. So
	// are path_id's, as a shredded relation's whose rows hold several
	// paths: its index's run is the relation's posting lists, counted
	// into place over the rows the index is created on and merged with
	// each later commit's.
	label := func(id int64) Value { return NewText(fmt.Sprintf("k%d", id*7%11)) }
	pathID := func(id int64) Value { return NewInt(1 + id*5%3) }
	// A two-level sibling-heavy shape with ordinals around the
	// component byte boundaries (0x7F/0x80, 0xFF/0x100), the
	// adversarial cases for comparator order (Section 4.2: encoded
	// Dewey order must equal document order for the lemmas to hold on
	// an index run).
	var rows [][]Value
	id := int64(0)
	for _, a := range []int{1, 2, 127, 128, 255, 256} {
		rows = append(rows, []Value{NewInt(id), NewBytes(dewey.New(1, a)), label(id), pathID(id)})
		id++
		for _, b := range []int{1, 127, 128, 300} {
			rows = append(rows, []Value{NewInt(id), NewBytes(dewey.New(1, a, b)), label(id), pathID(id)})
			id++
		}
	}
	if _, err := tb.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	// The index is created AFTER the rows exist, so recovery must
	// rebuild it from replayed rows, not replay it empty.
	if _, err := tb.CreateIndex("T_dp", "dewey_pos"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateIndex("T_label", "label"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateIndex("T_pid", "path_id"); err != nil {
		t.Fatal(err)
	}
	// More rows after the index: replay must route them through the
	// recovered index too.
	var late [][]Value
	for _, a := range []int{1, 255} {
		late = append(late, []Value{NewInt(id), NewBytes(dewey.New(1, a, 500)), label(id), pathID(id)})
		id++
	}
	if _, err := tb.InsertBatch(late); err != nil {
		t.Fatal(err)
	}

	// Components encode as fixed 3-byte big-endian ordinals:
	// d(1,2) = X'000001000002', d(1,128) = X'000001000080',
	// d(1,127)||0xFF = X'00000100007FFF'.
	queries := []string{
		// Lemma 1: descendant-or-self of /1/2 — the node + 4 children.
		"SELECT COUNT(*) FROM T WHERE T.dewey_pos BETWEEN X'000001000002' AND X'000001000002' || X'FF'",
		// The same range across the 0x7F/0x80 boundary, with the late
		// row: /1/128 + 4 children + (1,128,500)? (500 > 300, included).
		"SELECT T.id FROM T WHERE T.dewey_pos BETWEEN X'000001000080' AND X'000001000080' || X'FF' ORDER BY T.dewey_pos",
		// Lemma 2: everything following the /1/127 subtree — the
		// a in {128, 255, 256} subtrees (5 nodes each) + the late
		// (1,255,500) row; the late (1,1,500) row precedes.
		"SELECT COUNT(*) FROM T WHERE T.dewey_pos > X'00000100007F' || X'FF'",
		// Full ordered scan: document order end to end.
		"SELECT T.id FROM T ORDER BY T.dewey_pos",
	}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		if want[i], err = runSQL(db, q); err != nil {
			t.Fatal(err)
		}
	}
	// Pin the pre-crash cardinalities so a wrong literal cannot make
	// the recovery comparison vacuously pass on empty ranges.
	for i, wantN := range []int64{5, 5, 16, int64(len(rows) + len(late))} {
		n := int64(len(want[i].Rows))
		if len(want[i].Rows) == 1 && len(want[i].Rows[0]) == 1 && want[i].Cols[0] == "COUNT(*)" {
			n = want[i].Rows[0][0].I
		}
		if n != wantN {
			t.Fatalf("query %d pre-crash cardinality = %d, want %d", i, n, wantN)
		}
	}

	// Crash (abandon) and recover.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rt := re.Table("T")
	if rt == nil {
		t.Fatal("table T missing after recovery")
	}
	ix := rt.FindIndex(rt.ColIndex("dewey_pos"))
	if ix == nil {
		t.Fatal("index T_dp missing after recovery")
	}
	if ix.len() != len(rows)+len(late) || ix.keys != len(rows)+len(late) {
		t.Fatalf("recovered index holds %d entries over %d keys, want %d of each", ix.len(), ix.keys, len(rows)+len(late))
	}
	if pid := rt.FindIndex(rt.ColIndex("path_id")); pid == nil || pid.ids == nil || pid.keys != 3 {
		t.Fatalf("recovered T_pid %+v: want an explicit run over 3 paths", pid)
	}
	for i, q := range queries {
		got, err := runSQL(re, q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalResults(want[i], got) {
			t.Errorf("query %d (%s): recovered index disagrees with pre-crash result", i, q)
		}
	}
	requireSameState(t, db, re)
	// A checkpoint writes each index after all of its table's rows, so
	// the reload rebuilds T_dp over keys the late rows took out of
	// order: both indexes now go through the sort.
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	requireSameState(t, db, re2)
}
