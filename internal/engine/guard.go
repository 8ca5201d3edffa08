package engine

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// This file is the engine's designated panic boundary: guardPanics
// below contains the package's only recover() call (enforced by the
// recoverguard analyzer in internal/analysis). The statement boundary
// (db.run, behind RunWithOptionsContext and Prepared execution), the
// plan describers' db.compile/db.analyze and each morsel worker
// goroutine defer it, so an internal panic in planning, execution or
// a write surfaces to the caller as a typed *InternalError instead of
// crashing a serving process. Nothing else in the engine may
// recover: swallowing a panic anywhere but the statement boundary
// would hide corruption mid-pipeline.

// ErrInternal is the sentinel matched by errors.Is for panics
// converted at the statement boundary.
var ErrInternal = errors.New("engine: internal error")

// InternalError wraps a panic caught at a statement boundary. It
// carries the statement's SQL text and the goroutine stack at the
// panic site, so a serving process can log the offending query
// without dying.
type InternalError struct {
	// SQL is the rendered text of the statement that panicked.
	SQL string
	// Panic is the recovered panic value.
	Panic any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("engine: internal error executing %q: %v", e.SQL, e.Panic)
}

// Unwrap makes errors.Is(err, ErrInternal) match.
func (e *InternalError) Unwrap() error { return ErrInternal }

// guardPanics converts a panic into *InternalError. It must be
// deferred with the statement's SQL text and the callee's named
// error result. A panic that is already a converted *InternalError
// (re-raised across layers) passes through unchanged.
func guardPanics(sql string, err *error) {
	r := recover()
	if r == nil {
		return
	}
	if ie, ok := r.(*InternalError); ok {
		*err = ie
		return
	}
	*err = &InternalError{SQL: sql, Panic: r, Stack: debug.Stack()}
}
