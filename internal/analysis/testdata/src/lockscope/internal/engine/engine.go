// Seeded violations for the lockscope analyzer: critical sections
// stretched across operations with unbounded latency. The pattern
// cache, hash builds and plan cache are shared across morsel workers;
// a yield callback, channel op or failpoint site under their mutexes
// turns one slow row into a convoy.
package engine

import (
	"sync"

	"repro/internal/failpoint"
)

type cache struct {
	mu sync.Mutex
	m  map[string]int
}

// A dynamic call (func-typed parameter) under the lock runs arbitrary
// plan code inside the critical section.
func yieldUnderLock(c *cache, key string, yield func(int) bool) {
	c.mu.Lock()
	v := c.m[key]
	yield(v) // want `dynamic call yield while c\.mu is held`
	c.mu.Unlock()
}

// Releasing first is the sanctioned shape; this function also pins
// that the analyzer tracks release (no diagnostic after Unlock).
func sendUnderLock(c *cache, key string, out chan int) {
	c.mu.Lock()
	out <- c.m[key] // want `channel send while c\.mu is held`
	c.mu.Unlock()
	out <- 0
}

func recvUnderLock(c *cache, in chan int) {
	c.mu.Lock()
	c.m["k"] = <-in // want `channel receive while c\.mu is held`
	c.mu.Unlock()
}

// The CFG decomposes select into its comm clauses, so each blocking
// arm is flagged at its own line.
func selectUnderLock(c *cache, in, out chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case v := <-in: // want `channel receive while c\.mu is held`
		c.m["k"] = v
	case out <- len(c.m): // want `channel send while c\.mu is held`
	}
}

// An armed failpoint.Sleep inside the critical section stalls every
// worker contending for the lock — the chaos-run deadlock class.
func failpointUnderLock(c *cache) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := failpoint.Inject("engine/hash-build"); err != nil { // want `failpoint site while c\.mu is held`
		return err
	}
	c.m["k"]++
	return nil
}

// May-held means union over paths: one locking branch is enough.
func heldOnSomePath(c *cache, locked bool, yield func(int) bool) {
	if locked {
		c.mu.Lock()
	}
	yield(0) // want `dynamic call yield while c\.mu is held`
	if locked {
		c.mu.Unlock()
	}
}

// An interface any package can implement is as open as a func value.
type Sink interface{ Emit(int) }

func emitUnderLock(c *cache, key string, out Sink) {
	c.mu.Lock()
	out.Emit(c.m[key]) // want `dynamic call out\.Emit while c\.mu is held`
	c.mu.Unlock()
}

// Releasing c.mu does not retire a separately locked local mu: only a
// name inherited from a caller's lockset is released by its bare
// spelling.
func localMuOutlivesFieldUnlock(c *cache, yield func(int) bool) {
	var mu sync.Mutex
	mu.Lock()
	c.mu.Lock()
	c.mu.Unlock()
	yield(0) // want `dynamic call yield while mu is held`
	mu.Unlock()
}
