// Package wal implements a write-ahead log: an append-only file of
// length-prefixed, CRC32C-framed records with fsync-on-commit
// durability. The engine logs every mutation (insert batch, create
// table/index) as one record before applying it, so a crash at any
// instant loses at most the uncommitted suffix; Open replays the
// surviving records and tolerates a torn or corrupt tail by
// truncating the log at the last valid frame — recovery never
// panics, it degrades to the longest valid prefix.
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	0       4     length of the framed body (LSN + payload) = 8 + len(payload)
//	4       4     CRC32C (Castagnoli) of the framed body
//	8       8     LSN, a monotonically increasing record sequence number
//	16      n     payload (opaque to this package)
//
// The CRC covers the LSN so a frame cannot be relabeled to a
// different sequence position undetected, and the length field is
// validated both against the remaining file size and a sanity cap
// before the body is read, so a corrupt length cannot cause a huge
// allocation. LSNs survive checkpoints: a checkpoint records the LSN
// up to which its state is complete, and replay skips records at or
// below it, making re-replay idempotent.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/failpoint"
)

// headerSize is the fixed prefix of a frame: length + CRC.
const headerSize = 8

// lsnSize is the framed LSN field.
const lsnSize = 8

// MaxRecordSize caps one record's payload. A corrupt length field
// beyond the cap is treated like any other torn tail.
const MaxRecordSize = 1 << 30

// castagnoli is the CRC32C polynomial table, the checksum used by
// most production WALs (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one replayed log record.
type Record struct {
	LSN     uint64
	Payload []byte
}

// Log is an open write-ahead log. A Log is single-writer: callers
// serialize Append/Commit externally (the engine holds its writer
// lock across every commit).
type Log struct {
	//guardedby:caller(writeMu)
	f    *os.File
	path string
	//guardedby:caller(writeMu)
	next uint64 // LSN to assign to the next appended record
	//guardedby:caller(writeMu)
	buf []byte // frame assembly buffer, reused across appends
	// poison is set by the first failed write or fsync and never
	// cleared: the file may then hold a partial frame, or a whole one
	// the kernel has dropped the dirty pages of, so nothing appended
	// after it could be trusted to survive recovery.
	//guardedby:caller(writeMu)
	poison error
}

// ErrPoisoned is matched (errors.Is) by every Append, Sync, Commit and
// Reset after a write or fsync of the log has failed. The log stays
// refused until it is reopened, which recovers the valid prefix.
var ErrPoisoned = errors.New("wal: log is poisoned by an earlier write or sync failure; reopen to recover")

// fail poisons the log and returns err, the failure that did it.
func (l *Log) fail(err error) error {
	l.poison = fmt.Errorf("%w (%v)", ErrPoisoned, err)
	return err
}

// Open opens (creating if absent) the log at path and replays every
// valid record through fn in LSN order. A torn or corrupt tail — a
// partial header, a length running past EOF or beyond MaxRecordSize,
// or a CRC mismatch — ends replay: the tail is discarded by
// truncating the file at the last valid frame, and the log is ready
// to append after it. Replay is sequential and stops with fn's error
// if fn fails (the file is not truncated in that case).
func Open(path string, fn func(rec Record) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	valid, last, err := readFrames(f, fn)
	if err != nil && !errors.Is(err, errBadFrame) {
		_ = f.Close()
		return nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if size > valid {
		// Torn or corrupt tail: drop it. The discarded bytes were never
		// acknowledged as committed (Commit returns only after fsync of
		// the full frame), so truncation loses no durable write.
		if err := f.Truncate(valid); err != nil {
			_ = f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, err
		}
		if _, err := f.Seek(valid, io.SeekStart); err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	return &Log{f: f, path: path, next: last + 1}, nil
}

// errBadFrame marks readFrames' verdict on the bytes themselves, as
// opposed to an error returned by the record callback.
var errBadFrame = errors.New("wal: invalid frame")

// readFrames is the one frame decoder: it reads frames from the start
// of r, calling fn (if non-nil) per valid record, and returns the byte
// offset of the end of the last valid frame and the highest LSN seen.
// The error is nil at a clean end of file, fn's own error if fn
// failed, and otherwise wraps errBadFrame; whether a bad frame is a
// tolerated torn tail (Open) or corruption (Scan) is the caller's call.
func readFrames(r io.Reader, fn func(rec Record) error) (valid int64, last uint64, err error) {
	var hdr [headerSize]byte
	var body []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return valid, last, nil
			}
			return valid, last, fmt.Errorf("%w: partial header", errBadFrame)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		// The length is checked before the body is allocated, so a
		// corrupt one cannot cause a huge allocation.
		if length < lsnSize || length > MaxRecordSize+lsnSize {
			return valid, last, fmt.Errorf("%w: corrupt length %d", errBadFrame, length)
		}
		if cap(body) < int(length) {
			body = make([]byte, length)
		}
		body = body[:length]
		if _, err := io.ReadFull(r, body); err != nil {
			return valid, last, fmt.Errorf("%w: truncated body", errBadFrame)
		}
		if crc32.Checksum(body, castagnoli) != crc {
			return valid, last, fmt.Errorf("%w: checksum mismatch", errBadFrame)
		}
		lsn := binary.LittleEndian.Uint64(body[0:lsnSize])
		if fn != nil {
			if err := fn(Record{LSN: lsn, Payload: body[lsnSize:]}); err != nil {
				return valid, last, err
			}
		}
		valid += int64(headerSize) + int64(length)
		if lsn > last {
			last = lsn
		}
	}
}

// Scan reads every record of the file at path in order, calling fn
// per record. Unlike Open it is read-only and strict: an invalid
// frame anywhere is an error, not a tolerated tail. It is the reader
// for checkpoint files, which are renamed into place atomically and
// therefore are never legitimately torn — corruption there means the
// storage lied, and recovery must say so rather than silently load a
// prefix of the database.
func Scan(path string, fn func(rec Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, _, err := readFrames(f, fn); err != nil {
		return fmt.Errorf("%w in %s", err, path)
	}
	return nil
}

// Append writes one record frame without syncing; the record is not
// durable until Sync returns. It returns the record's LSN.
func (l *Log) Append(payload []byte) (uint64, error) {
	if l.poison != nil {
		return 0, l.poison
	}
	if err := failpoint.Inject("wal/append"); err != nil {
		return 0, err
	}
	if len(payload) > MaxRecordSize {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds maximum %d", len(payload), MaxRecordSize)
	}
	lsn := l.next
	length := lsnSize + len(payload)
	need := headerSize + length
	if cap(l.buf) < need {
		l.buf = make([]byte, need)
	}
	frame := l.buf[:need]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(length))
	binary.LittleEndian.PutUint64(frame[8:16], lsn)
	copy(frame[16:], payload)
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(frame[8:], castagnoli))
	if _, err := l.f.Write(frame); err != nil {
		return 0, l.fail(err)
	}
	l.next = lsn + 1
	return lsn, nil
}

// Sync makes every appended record durable (fsync). An error means
// the most recent appends may or may not survive a crash; the caller
// must not report them as committed, and the log is poisoned.
func (l *Log) Sync() error {
	if l.poison != nil {
		return l.poison
	}
	if err := failpoint.Inject("wal/fsync"); err != nil {
		return l.fail(err)
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(err)
	}
	return nil
}

// Commit appends one record and syncs: the write-ahead contract's
// "durable before visible" step, one fsync per commit.
func (l *Log) Commit(payload []byte) (uint64, error) {
	lsn, err := l.Append(payload)
	if err != nil {
		return 0, err
	}
	if err := l.Sync(); err != nil {
		return 0, err
	}
	return lsn, nil
}

// LastLSN returns the LSN of the most recently appended record (0 if
// none were ever appended).
func (l *Log) LastLSN() uint64 { return l.next - 1 }

// EnsureNext raises the next assigned LSN to at least lsn. Recovery
// calls this with baseLSN+1 after loading a checkpoint: the WAL file
// may be freshly reset (so its own replay saw no records), but new
// appends must still land above the checkpoint's base LSN or a later
// replay would skip them as already checkpointed.
func (l *Log) EnsureNext(lsn uint64) {
	if lsn > l.next {
		l.next = lsn
	}
}

// Reset truncates the log to empty after a checkpoint has captured
// its effects. LSNs keep counting from where they were, so records
// appended after the reset stay above the checkpoint's base LSN.
func (l *Log) Reset() error {
	if l.poison != nil {
		return l.poison
	}
	if err := l.f.Truncate(0); err != nil {
		return l.fail(err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return l.fail(err)
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(err)
	}
	return nil
}

// Close closes the log file, syncing it first unless the log is
// poisoned (a second fsync after a failed one can report success for
// pages the kernel already dropped). The poison or sync error takes
// precedence over the close error.
func (l *Log) Close() error {
	err := l.poison
	if err == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }
