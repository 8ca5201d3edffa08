package engine

import (
	"fmt"
	"testing"
)

// resetPatternCache empties the shared cache so size assertions are
// deterministic regardless of test order.
func resetPatternCache() {
	patternCache.mu.Lock()
	patternCache.m = make(map[string]*matcher)
	patternCache.mu.Unlock()
}

// TestPatternCacheReuseAcrossQueries verifies the patternCache
// discipline end to end: running the same REGEXP_LIKE query twice
// (and the same pattern via compilePattern directly) reuses one
// compiled matcher instead of recompiling per query or per row.
func TestPatternCacheReuseAcrossQueries(t *testing.T) {
	resetPatternCache()
	db := fixtureDB(t)

	const q = "SELECT F.id FROM F WHERE REGEXP_LIKE(F.text, '^[0-9]+$')"
	if _, err := runSQL(db, q); err != nil {
		t.Fatal(err)
	}
	if got := PatternCacheSize(); got != 1 {
		t.Fatalf("after first query: cache size = %d, want 1", got)
	}
	if _, err := runSQL(db, q); err != nil {
		t.Fatal(err)
	}
	if got := PatternCacheSize(); got != 1 {
		t.Fatalf("after second query: cache size = %d, want 1 (matcher must be reused)", got)
	}

	m1, err := compilePattern("^[0-9]+$")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := compilePattern("^[0-9]+$")
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("compilePattern returned distinct matchers for one pattern")
	}
}

// TestPatternCacheBounded verifies the eviction cap: an unbounded
// stream of distinct patterns cannot grow the cache past
// patternCacheCap, and the cache keeps working after a flush.
func TestPatternCacheBounded(t *testing.T) {
	resetPatternCache()
	for i := 0; i < patternCacheCap+10; i++ {
		if _, err := compilePattern(fmt.Sprintf("^row%d$", i)); err != nil {
			t.Fatal(err)
		}
		if got := PatternCacheSize(); got > patternCacheCap {
			t.Fatalf("cache size %d exceeds cap %d", got, patternCacheCap)
		}
	}
	// The overflow flushed; the cache must still serve hits.
	m1, err := compilePattern("^again$")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := compilePattern("^again$")
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("matcher not cached after overflow flush")
	}
}
