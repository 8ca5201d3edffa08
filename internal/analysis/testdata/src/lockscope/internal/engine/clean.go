// Sanctioned locking shapes lockscope must not flag: tight critical
// sections around the shared map, callbacks after release, deferred
// unlock over pure map access, and static calls under the lock.
package engine

import "repro/internal/failpoint"

// Copy under the lock, yield after release.
func yieldAfterUnlock(c *cache, key string, yield func(int) bool) {
	c.mu.Lock()
	v := c.m[key]
	c.mu.Unlock()
	yield(v)
}

// Deferred unlock is fine when the body is pure map access.
func deferredPureAccess(c *cache, key string, v int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = v
}

func bump(v int) int { return v + 1 }

// Static calls under the lock have known, bounded bodies.
func staticUnderLock(c *cache, key string) {
	c.mu.Lock()
	c.m[key] = bump(c.m[key])
	c.mu.Unlock()
}

// Failpoint before acquiring is the injection pattern the engine uses.
func failpointThenLock(c *cache) error {
	if err := failpoint.Inject("engine/hash-build"); err != nil {
		return err
	}
	c.mu.Lock()
	c.m["k"]++
	c.mu.Unlock()
	return nil
}

// A closure body is its own scope: locks taken inside it are not held
// at the enclosing function's operations.
func closureScopes(c *cache, run func(func())) {
	run(func() {
		c.mu.Lock()
		c.m["k"]++
		c.mu.Unlock()
	})
}

// An interface with an unexported method is sealed: only this package
// implements it, so dispatch under the lock reaches known bodies.
type step interface{ apply(m map[string]int) }

type incr string

func (k incr) apply(m map[string]int) { m[string(k)]++ }

func sealedUnderLock(c *cache, s step) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s.apply(c.m)
}
