// Package snapfreeze exercises the frozen-after-publish analyzer: a
// miniature COW engine whose snapshots are published through an
// annotated atomic.Pointer.
package snapfreeze

import (
	"sync"
	"sync/atomic"
)

type state struct {
	rows []int
	seq  int
	// memo is mutex-serialized lazy state, as the engine's derived state
	// is: writes to its guarded field are guardedby's domain.
	memo memo[int, int]
	hits *counter[int]
}

type memo[K comparable, V any] struct {
	mu sync.Mutex
	//guardedby:mu
	m map[K]V
}

func (c *memo[K, V]) put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[K]V{}
	}
	c.m[k] = v
}

type counter[T any] struct{ last T }

func (c *counter[T]) set(v T) { c.last = v }

type snap struct {
	states []*state
	seq    int
}

func (s *snap) clone() *snap {
	return &snap{states: append([]*state(nil), s.states...), seq: s.seq + 1}
}

type DB struct {
	//walorder:publish
	snap atomic.Pointer[snap]
}

// New publishes through a fresh receiver: construction, not mutation.
func New() *DB {
	db := &DB{}
	db.snap.Store(&snap{})
	return db
}

func (db *DB) load() *snap { return db.snap.Load() }

// stateOf returns published memory through a parameter-derived chain.
func (db *DB) stateOf(i int) *state { return db.load().states[i] }

// Commit is the legal shape: clone, mutate the fresh copy, publish.
func (db *DB) Commit(v int) {
	cur := db.load()
	next := cur.clone()
	next.seq = v
	db.snap.Store(next)
}

// BumpSeq writes directly into the published snapshot.
func (db *DB) BumpSeq() {
	s := db.load()
	s.seq++ // want `derived from a published snapshot`
}

// Zero writes through the whole call chain without naming a local.
func (db *DB) Zero(i int) {
	db.load().states[i].rows[0] = 0 // want `reaches published snapshot memory`
}

func scrub(st *state) { st.rows = nil }

// Scrub hands published memory to a function that writes it.
func (db *DB) Scrub(i int) {
	scrub(db.stateOf(i)) // want `passed to a function that writes it`
}

// Sum only reads: always legal.
func (db *DB) Sum(i int) int {
	n := 0
	for _, v := range db.stateOf(i).rows {
		n += v
	}
	return n
}

// PublishThenPatch mutates the value it just published: the builder
// exemption ends at the Store.
func (db *DB) PublishThenPatch(v int) {
	next := db.load().clone()
	db.snap.Store(next)
	next.seq = v // want `after it was published`
}

// Memoise publishes into a published state's memo through a method of
// the instantiation: the write is to a guarded field, left to
// guardedby.
func (db *DB) Memoise(i, k, v int) {
	db.stateOf(i).memo.put(k, v)
}

// MemoiseInline writes the guarded field of a published state's memo
// directly, under its mutex: left to guardedby too.
func (db *DB) MemoiseInline(i, k, v int) {
	st := db.stateOf(i)
	st.memo.mu.Lock()
	defer st.memo.mu.Unlock()
	st.memo.m[k] = v
}

// Hit hands published memory to a method of an instantiation that
// writes an unguarded field.
func (db *DB) Hit(i, v int) {
	db.stateOf(i).hits.set(v) // want `passed to a function that writes it`
}
