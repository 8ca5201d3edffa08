package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// The resource governor: every statement runs under an accountant
// that tracks the bytes and rows it materializes (result buffers,
// ORDER BY keys, DISTINCT sets, exec-time hash-join build sides)
// against the per-statement budgets in ExecOptions. Budgets are
// enforced at the materialization sites, so a runaway query fails with
// a typed error at the row that crosses a budget — the same row on
// either executor — instead of growing until the process dies. With
// no budgets set the accountant still runs, maintaining the
// peak-memory high-water mark reported by Result.PeakMemBytes and
// DB.PeakStatementMemory.

// ErrMemoryBudget reports a statement that exceeded
// ExecOptions.MaxMemoryBytes.
var ErrMemoryBudget = errors.New("engine: statement memory budget exceeded")

// ErrRowBudget reports a statement that exceeded ExecOptions.MaxRows.
var ErrRowBudget = errors.New("engine: statement row budget exceeded")

// Approximate per-object overheads used by the accountant. They are
// estimates of runtime footprint (struct headers, map buckets), not
// exact allocator measurements; budgets are a defense against
// runaway statements, not a precise meter.
const (
	valueStructBytes = 48 // Value struct: kind + int64 + float64 + string/slice headers
	sliceHeaderBytes = 24
	mapEntryBytes    = 48 // amortized bucket + string header per map entry
)

// accountant tracks one statement's materialized bytes and rows.
// The charge counters are atomics: every morsel worker charges the
// same accountant.
type accountant struct {
	maxBytes int64 // 0 = unlimited
	maxRows  int64 // 0 = unlimited
	bytes    atomic.Int64
	rows     atomic.Int64
	peak     atomic.Int64
	// The rows morsel workers hold, buffered or parked, before they are
	// charged (hold); one lock checks and books a row in one step.
	holdMu sync.Mutex
	//guardedby:holdMu
	heldRows, heldBytes int64
}

func newAccountant(maxBytes, maxRows int64) *accountant {
	return &accountant{maxBytes: maxBytes, maxRows: maxRows}
}

// growBytes charges delta bytes, updates the peak high-water mark,
// and reports ErrMemoryBudget when the budget is exceeded.
func (a *accountant) growBytes(delta int64) error {
	if a == nil {
		return nil
	}
	n := a.bytes.Add(delta)
	for {
		p := a.peak.Load()
		if n <= p || a.peak.CompareAndSwap(p, n) {
			break
		}
	}
	if a.maxBytes > 0 && n > a.maxBytes {
		return fmt.Errorf("%w: %d bytes materialized, budget %d", ErrMemoryBudget, n, a.maxBytes)
	}
	return nil
}

// wouldExceed reports ErrMemoryBudget if charging extra bytes on top
// of the current usage would overrun the budget, without charging.
// Long builds call it periodically so an overrun aborts mid-build
// instead of after materializing the whole structure.
func (a *accountant) wouldExceed(extra int64) error {
	if a == nil || a.maxBytes == 0 {
		return nil
	}
	if n := a.bytes.Load() + extra; n > a.maxBytes {
		return fmt.Errorf("%w: %d bytes materialized, budget %d", ErrMemoryBudget, n, a.maxBytes)
	}
	return nil
}

// hold books a row of rowBytes that a morsel worker ahead of the merge
// point buffers before it is charged, if the charged and held rows and
// bytes, this one included, stay within the budgets; false means the
// worker must wait for its turn. Budgeted statements only.
func (a *accountant) hold(rowBytes int64) bool {
	a.holdMu.Lock()
	defer a.holdMu.Unlock()
	if a.maxRows > 0 && a.rows.Load()+a.heldRows+1 > a.maxRows ||
		a.maxBytes > 0 && a.bytes.Load()+a.heldBytes+rowBytes > a.maxBytes {
		return false
	}
	a.heldRows++
	a.heldBytes += rowBytes
	return true
}

// release returns a held row's booking, once the row is charged.
func (a *accountant) release(rowBytes int64) {
	a.holdMu.Lock()
	a.heldRows--
	a.heldBytes -= rowBytes
	a.holdMu.Unlock()
}

// addRow charges one materialized result row of the given footprint.
func (a *accountant) addRow(rowBytes int64) error {
	if a == nil {
		return nil
	}
	n := a.rows.Add(1)
	if a.maxRows > 0 && n > a.maxRows {
		return fmt.Errorf("%w: %d rows materialized, budget %d", ErrRowBudget, n, a.maxRows)
	}
	return a.growBytes(rowBytes)
}

// addRows charges n materialized rows totaling rowBytes at once —
// the batch-flush form of addRow. The batched executors only defer
// charges into an addRows flush when limited() is false (both checks
// are then no-ops), so budget errors keep firing at the exact row;
// the flush maintains the peak high-water mark, which batching
// preserves because accounted bytes only grow during collection.
func (a *accountant) addRows(n, rowBytes int64) error {
	if a == nil || (n == 0 && rowBytes == 0) {
		return nil
	}
	total := a.rows.Add(n)
	if a.maxRows > 0 && total > a.maxRows {
		return fmt.Errorf("%w: %d rows materialized, budget %d", ErrRowBudget, total, a.maxRows)
	}
	return a.growBytes(rowBytes)
}

// limited reports whether any budget is set. Budgeted statements
// charge per row so the typed errors trigger at the same logical row
// at every batch size.
func (a *accountant) limited() bool {
	return a != nil && (a.maxBytes > 0 || a.maxRows > 0)
}

// peakBytes returns the statement's high-water mark of accounted
// bytes.
func (a *accountant) peakBytes() int64 {
	if a == nil {
		return 0
	}
	return a.peak.Load()
}

// valueMemBytes estimates the runtime footprint of one value.
func valueMemBytes(v Value) int64 {
	return valueStructBytes + int64(len(v.S)) + int64(len(v.B))
}

// rowMemBytes estimates the footprint of a materialized row plus its
// ORDER BY key vector.
func rowMemBytes(row, keys []Value) int64 {
	n := int64(sliceHeaderBytes)
	for _, v := range row {
		n += valueMemBytes(v)
	}
	for _, v := range keys {
		n += valueMemBytes(v)
	}
	return n
}
