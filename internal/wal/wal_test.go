package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/failpoint"
)

func tmpLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "wal.log")
}

// collect opens path and returns every replayed record.
func collect(t *testing.T, path string) ([]Record, *Log) {
	t.Helper()
	var recs []Record
	l, err := Open(path, func(rec Record) error {
		p := make([]byte, len(rec.Payload))
		copy(p, rec.Payload)
		recs = append(recs, Record{LSN: rec.LSN, Payload: p})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, l
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := tmpLog(t)
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("alpha"), {}, []byte("gamma gamma gamma")}
	for i, p := range payloads {
		lsn, err := l.Commit(p)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
	}
	if got := l.LastLSN(); got != 3 {
		t.Fatalf("LastLSN = %d, want 3", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs, l2 := collect(t, path)
	defer l2.Close()
	if len(recs) != len(payloads) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(payloads))
	}
	for i, rec := range recs {
		if rec.LSN != uint64(i+1) || !bytes.Equal(rec.Payload, payloads[i]) {
			t.Errorf("record %d = {%d, %q}, want {%d, %q}", i, rec.LSN, rec.Payload, i+1, payloads[i])
		}
	}
	// Appends after reopen continue the LSN sequence.
	lsn, err := l2.Commit([]byte("delta"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 4 {
		t.Errorf("post-reopen lsn = %d, want 4", lsn)
	}
}

// TestTornTailEveryOffset is the torn-write property test: for every
// possible truncation point inside the final frame, Open must recover
// exactly the preceding records and truncate the tail, and the log
// must accept new appends afterwards.
func TestTornTailEveryOffset(t *testing.T) {
	base := tmpLog(t)
	l, err := Open(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]byte("first record")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]byte("second record")); err != nil {
		t.Fatal(err)
	}
	mark, err := os.Stat(base)
	if err != nil {
		t.Fatal(err)
	}
	keep := mark.Size() // end of the frames that must survive
	if _, err := l.Commit([]byte("the final, torn record")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}

	for cut := keep; cut < int64(len(full)); cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.log")
			if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			recs, l := collect(t, path)
			if len(recs) != 2 {
				t.Fatalf("recovered %d records, want 2", len(recs))
			}
			if string(recs[0].Payload) != "first record" || string(recs[1].Payload) != "second record" {
				t.Fatalf("recovered payloads %q, %q", recs[0].Payload, recs[1].Payload)
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != keep {
				t.Errorf("file size after recovery = %d, want %d (tail truncated)", st.Size(), keep)
			}
			// The recovered log keeps working: append, close, replay all 3.
			if lsn, err := l.Commit([]byte("replacement")); err != nil || lsn != 3 {
				t.Fatalf("post-recovery Commit = (%d, %v), want (3, nil)", lsn, err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			recs2, l2 := collect(t, path)
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			if len(recs2) != 3 || string(recs2[2].Payload) != "replacement" {
				t.Fatalf("after repair replay = %d records (last %q), want 3 / %q",
					len(recs2), recs2[len(recs2)-1].Payload, "replacement")
			}
		})
	}
}

// TestCorruptionCorpus flips one bit at every byte of a valid log and
// checks Open never fails and never yields a record that was not
// committed: each replayed record must match the original at its
// position (corruption can only shorten the sequence, not alter it).
func TestCorruptionCorpus(t *testing.T) {
	base := tmpLog(t)
	l, err := Open(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 4; i++ {
		p := []byte(fmt.Sprintf("record-%d-%s", i, string(bytes.Repeat([]byte{'x'}, i*7))))
		want = append(want, p)
		if _, err := l.Commit(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	for off := 0; off < len(full); off++ {
		for _, bit := range []byte{0x01, 0x80} {
			mut := make([]byte, len(full))
			copy(mut, full)
			mut[off] ^= bit
			path := filepath.Join(dir, "flip.log")
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			var got [][]byte
			l, err := Open(path, func(rec Record) error {
				p := make([]byte, len(rec.Payload))
				copy(p, rec.Payload)
				got = append(got, p)
				return nil
			})
			if err != nil {
				t.Fatalf("offset %d bit %#x: Open failed: %v", off, bit, err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if len(got) > len(want) {
				t.Fatalf("offset %d bit %#x: replayed %d records from a 4-record log", off, bit, len(got))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("offset %d bit %#x: record %d = %q, want %q (corruption altered a record)",
						off, bit, i, got[i], want[i])
				}
			}
			// A flip inside record i's frame must kill records i..3. (A
			// flipped length field can also orphan later frames; only the
			// prefix property is guaranteed, checked above.)
		}
	}
}

// TestCorruptLengthField checks the two length pathologies directly:
// a length beyond MaxRecordSize and a length running past EOF are both
// treated as a torn tail, without huge allocations or errors.
func TestCorruptLengthField(t *testing.T) {
	for _, tc := range []struct {
		name string
		len  uint32
	}{
		{"huge", 1<<31 + 12},
		{"past-eof", 1 << 20},
		{"below-min", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := tmpLog(t)
			l, err := Open(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Commit([]byte("good")); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			frame := make([]byte, 16)
			frame[0] = byte(tc.len)
			frame[1] = byte(tc.len >> 8)
			frame[2] = byte(tc.len >> 16)
			frame[3] = byte(tc.len >> 24)
			if err := os.WriteFile(path, append(good, frame...), 0o644); err != nil {
				t.Fatal(err)
			}
			recs, l2 := collect(t, path)
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			if len(recs) != 1 || string(recs[0].Payload) != "good" {
				t.Fatalf("recovered %d records, want just %q", len(recs), "good")
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != int64(len(good)) {
				t.Errorf("size after recovery = %d, want %d", st.Size(), len(good))
			}
		})
	}
}

// TestScanStrict checks that Scan (the checkpoint reader) rejects what
// Open tolerates: any invalid frame is an error.
func TestScanStrict(t *testing.T) {
	path := tmpLog(t)
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Commit([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	n := 0
	if err := Scan(path, func(rec Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("Scan visited %d records, want 3", n)
	}

	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncated tail: error.
	if err := os.WriteFile(path, full[:len(full)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Scan(path, func(rec Record) error { return nil }); err == nil {
		t.Error("Scan accepted a truncated file")
	}
	// Flipped payload byte: error.
	mut := make([]byte, len(full))
	copy(mut, full)
	mut[len(mut)-1] ^= 0xff
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Scan(path, func(rec Record) error { return nil }); err == nil {
		t.Error("Scan accepted a corrupt frame")
	}
	// Missing file: error (checkpoints are only scanned when present).
	if err := Scan(filepath.Join(t.TempDir(), "nope"), nil); err == nil {
		t.Error("Scan accepted a missing file")
	}
}

func TestResetAndEnsureNext(t *testing.T) {
	path := tmpLog(t)
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Commit([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("size after Reset = %d, want 0", st.Size())
	}
	// In-process, LSNs keep counting past the reset.
	lsn, err := l.Commit([]byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 6 {
		t.Fatalf("post-Reset lsn = %d, want 6", lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Across a reopen the file alone says next=7; EnsureNext must be
	// able to raise it (recovery calls it with the checkpoint base) and
	// must never lower it.
	recs, l2 := collect(t, path)
	if len(recs) != 1 || recs[0].LSN != 6 {
		t.Fatalf("replay after reset+append = %+v", recs)
	}
	l2.EnsureNext(100)
	l2.EnsureNext(50) // no-op: lower than current
	lsn, err = l2.Commit([]byte("z"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 100 {
		t.Fatalf("post-EnsureNext lsn = %d, want 100", lsn)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	path := tmpLog(t)
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(make([]byte, MaxRecordSize+1)); err == nil {
		t.Fatal("Append accepted an oversize record")
	}
	if got := l.LastLSN(); got != 0 {
		t.Errorf("LastLSN after rejected append = %d, want 0", got)
	}
}

// TestLSNTamperRejected checks the CRC-covers-LSN property: rewriting
// a frame's LSN field in place (relabeling where in the sequence it
// claims to sit, as a cross-position transplant would need to) breaks
// the checksum and ends replay at the previous frame.
func TestLSNTamperRejected(t *testing.T) {
	path := tmpLog(t)
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The second frame starts after the first: header(8) + lsn(8) +
	// len("first")(5). Its LSN field is the 8 bytes after its header.
	off := 8 + 8 + 5
	full[off+8] = 9 // LSN 2 -> 9, payload and CRC untouched
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, l2 := collect(t, path)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "first" {
		t.Fatalf("replay after LSN tamper = %d records, want just %q", len(recs), "first")
	}
}

// TestPoisonedAfterFailure checks the fail-stop rule: once a write or
// fsync has failed, Append, Sync, Commit and Reset all refuse with
// ErrPoisoned — no later record can be acknowledged on top of a frame
// that may be partial or lost — while a fault injected at wal/append,
// before any byte is written, leaves the log usable. Reopening
// recovers the acknowledged prefix (plus, possibly, the whole
// unacknowledged frame).
func TestPoisonedAfterFailure(t *testing.T) {
	defer failpoint.Reset()
	injected := errors.New("injected")
	for _, tc := range []struct {
		name string
		// fail makes one operation on l fail and returns its error.
		fail func(t *testing.T, l *Log) error
	}{
		{"fsync", func(t *testing.T, l *Log) error {
			if err := failpoint.Enable("wal/fsync", failpoint.Return(injected)); err != nil {
				t.Fatal(err)
			}
			defer failpoint.Reset()
			_, err := l.Commit([]byte("unacknowledged"))
			return err
		}},
		{"write", func(t *testing.T, l *Log) error {
			// Closing the descriptor under the log makes the next write fail.
			if err := l.f.Close(); err != nil {
				t.Fatal(err)
			}
			_, err := l.Append([]byte("unwritten"))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := tmpLog(t)
			l, err := Open(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Commit([]byte("acknowledged")); err != nil {
				t.Fatal(err)
			}
			if err := failpoint.Enable("wal/append", failpoint.Return(injected)); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Commit([]byte("never written")); !errors.Is(err, injected) {
				t.Fatalf("Commit at armed wal/append = %v, want the injected error", err)
			}
			failpoint.Reset()
			if _, err := l.Commit([]byte("acknowledged too")); err != nil {
				t.Fatalf("Commit after a wal/append fault: %v", err)
			}

			if err := tc.fail(t, l); err == nil || errors.Is(err, ErrPoisoned) {
				t.Fatalf("the failing call returned %v, want the failure itself", err)
			}
			_, appendErr := l.Append([]byte("x"))
			_, commitErr := l.Commit([]byte("x"))
			for op, err := range map[string]error{
				"Append": appendErr, "Commit": commitErr, "Sync": l.Sync(), "Reset": l.Reset(), "Close": l.Close(),
			} {
				if !errors.Is(err, ErrPoisoned) {
					t.Errorf("%s on a poisoned log = %v, want ErrPoisoned", op, err)
				}
			}

			recs, l2 := collect(t, path)
			defer l2.Close()
			if len(recs) < 2 || len(recs) > 3 || string(recs[0].Payload) != "acknowledged" || string(recs[1].Payload) != "acknowledged too" {
				t.Fatalf("recovered %d records %q, want the two acknowledged ones (and at most the unacknowledged frame)", len(recs), recs)
			}
			if _, err := l2.Commit([]byte("after reopen")); err != nil {
				t.Fatalf("Commit on the reopened log: %v", err)
			}
		})
	}
}
