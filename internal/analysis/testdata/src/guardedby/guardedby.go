// Package guardedby exercises //guardedby: lockset checking: writes
// to annotated fields need the named mutex in the may-held lockset,
// with entry locksets propagated across static call edges; calls into
// //guardedby:caller() structs of another package need the caller's
// mutex at the call site.
package guardedby

import (
	"sync"

	"guardedby/internal/wal"
)

type cache struct {
	mu sync.Mutex
	//guardedby:mu
	hits int
	//guardedby:mu
	byKey map[string]int
}

// Get holds the lock across the write: fine, including under defer.
func (c *cache) Get(k string) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.byKey[k]
	if ok {
		c.hits++
	}
	return v, ok
}

// GetRacy writes an annotated field with no lock anywhere.
func (c *cache) GetRacy(k string) int {
	c.hits++ // want `write to c.hits \(field guarded by mu\) without mu held`
	return c.byKey[k]
}

// put relies on its callers' lock; every caller holds it, so the
// intersected entry lockset carries mu in.
func (c *cache) put(k string, v int) {
	c.byKey[k] = v
}

func (c *cache) Fill(k string, v int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(k, v)
}

// putRacy is reached by one locked and one lock-free caller: the
// entry intersection is empty and the finding names the lock-free
// path.
func (c *cache) putRacy(k string, v int) {
	c.byKey[k] = v // want `without mu held; lock-free call path`
}

func (c *cache) FillLocked(k string, v int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putRacy(k, v)
}

func (c *cache) FillUnlocked(k string, v int) {
	c.putRacy(k, v)
}

// DB owns the mutex that serializes the wal.Log it holds.
type DB struct {
	writeMu sync.Mutex
	log     *wal.Log
}

// Commit appends under writeMu, as the Log's annotations demand.
func (db *DB) Commit(p []byte) uint64 {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	return db.log.Append(p)
}

// CommitRacy calls a mutating method without the caller-held mutex.
func (db *DB) CommitRacy(p []byte) uint64 {
	return db.log.Append(p) // want `mutates fields guarded by caller-held writeMu`
}

// Tail only reads; read-only methods are not mutators.
func (db *DB) Tail() uint64 {
	return db.log.LastLSN()
}

// Fresh appends to a handle built here: construction is exempt.
func Fresh(p []byte) uint64 {
	l := wal.Open()
	return l.Append(p)
}

// memo is generic: a write to its guarded field, inside its methods or
// through a field of one of its instantiations, is checked against the
// annotation on the declaration, and calls of an instantiation's
// methods carry the caller's lockset like any static call.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	//guardedby:mu
	m map[K]V
}

// put holds the lock across the write: fine.
func (c *memo[K, V]) put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = v
}

// putRacy writes with no lock anywhere.
func (c *memo[K, V]) putRacy(k K, v V) {
	c.m[k] = v // want `write to c.m\[k\] \(field guarded by mu\) without mu held; lock-free call path: \(\*names\)\.Put -> \(\*memo\)\.putRacy`
}

// store relies on its one caller's lock, taken on an instantiation.
func (c *memo[K, V]) store(k K, v V) {
	c.m[k] = v
}

type names struct {
	byID memo[int, string]
}

func (n *names) Add(id int, s string) {
	n.byID.mu.Lock()
	defer n.byID.mu.Unlock()
	n.byID.store(id, s)
}

func (n *names) Put(id int, s string) {
	n.byID.put(id, s)
	n.byID.putRacy(id, s)
}

// Reset writes the instantiation's guarded field with no lock.
func (n *names) Reset() {
	n.byID.m = nil // want `write to n.byID.m \(field guarded by mu\) without mu held`
}

// ResetLocked writes it under the instantiation's mutex: fine.
func (n *names) ResetLocked() {
	n.byID.mu.Lock()
	defer n.byID.mu.Unlock()
	n.byID.m = nil
}
