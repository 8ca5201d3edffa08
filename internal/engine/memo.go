package engine

import "sync"

// memo is the engine's one container for derived state: values
// computed from inputs that never change under the key — a table
// state's immutable rows, a pattern's text — and shared by every
// statement and morsel worker that asks for the same key. Its policy is
// the same for every kind: a value is published once, and a racer that
// computed the same key keeps the first published value; at cap entries
// the whole map is dropped and refilled from the live working set
// (flush on overflow — constant time, and a flush costs one recompute
// per still-hot key). A hit takes the read lock and allocates nothing.
//
// Callers compute outside the memo and publish with put (resolution
// and pattern compilation, which run compiled expressions or a
// failpoint). Builds that must run once even when workers race for them
// hold flight across the miss, the build and the put (tableState.build);
// get and put never take it, so readers of built entries do not wait
// on a build.
type memo[K comparable, V any] struct {
	cap    int
	flight sync.Mutex
	mu     sync.RWMutex
	//guardedby:mu
	m map[K]V
}

// get returns the value published under k, if any.
func (c *memo[K, V]) get(k K) (V, bool) {
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	return v, ok
}

// put publishes v under k and returns the value the memo holds for k:
// v, or the value a racer published first.
func (c *memo[K, V]) put(k K, v V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.m[k]; ok {
		return prev
	}
	if c.m == nil || len(c.m) >= c.cap {
		c.m = make(map[K]V)
	}
	c.m[k] = v
	return v
}

// len reports the number of entries. It never exceeds cap.
func (c *memo[K, V]) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// entries returns a copy of the memo's entries.
func (c *memo[K, V]) entries() map[K]V {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[K]V, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}
