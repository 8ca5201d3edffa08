package engine

import (
	"fmt"
	"sync"
	"testing"
)

// reset empties the memo, as a flush does, so the next request
// recomputes.
func (c *memo[K, V]) reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}

// TestMemoPolicy pins the one policy every engine memo follows: the
// first value published under a key is the one every later put
// returns, and at cap entries the whole map is dropped before the next
// key goes in.
func TestMemoPolicy(t *testing.T) {
	c := memo[int, string]{cap: 3}
	if _, ok := c.get(1); ok {
		t.Fatal("empty memo served a value")
	}
	if got := c.put(1, "first"); got != "first" {
		t.Fatalf("put = %q, want the value itself", got)
	}
	if got := c.put(1, "racer"); got != "first" {
		t.Fatalf("a racer's put = %q, want the first published value", got)
	}
	if v, ok := c.get(1); !ok || v != "first" {
		t.Fatalf("get = %q, %v", v, ok)
	}
	c.put(2, "b")
	c.put(3, "c")
	if got := c.len(); got != 3 {
		t.Fatalf("len = %d, want 3", got)
	}
	// A put of a held key at cap keeps everything; a new key flushes.
	c.put(3, "c again")
	if got := c.len(); got != 3 {
		t.Fatalf("len after re-put at cap = %d, want 3", got)
	}
	c.put(4, "d")
	if got := c.len(); got != 1 {
		t.Fatalf("len after overflow = %d, want 1", got)
	}
	if _, ok := c.get(1); ok {
		t.Error("a flushed entry was served")
	}
	if v, _ := c.get(4); v != "d" {
		t.Errorf("entry put after the flush = %q, want d", v)
	}
}

// TestBuildSingleFlight: workers racing for one build get one build —
// performed, and charged, by exactly one of them — whether they ask for
// a hash index or a scoped run.
func TestBuildSingleFlight(t *testing.T) {
	ks := &keySet{keys: []int64{1}, has: map[int64]struct{}{1: {}}}
	for i := range 3 {
		fact := scopedDB(t).Table("fact")
		dp, err := fact.CreateIndex("fact_dp", "dewey_pos")
		if err != nil {
			t.Fatal(err)
		}
		k := []buildKey{{col: 2}, {col: 2, in: hashScope{col: 1, keys: ks}}, {col: 3, in: hashScope{col: 1, keys: ks}, run: dp}}[i]
		st := fact.state()
		const workers = 8
		var wg sync.WaitGroup
		start := make(chan struct{})
		builds := make([]build, workers)
		built := make([]bool, workers)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				var err error
				builds[i], built[i], _, err = st.build(k, newAccountant(0, 0))
				if err != nil {
					t.Error(err)
				}
			}(i)
		}
		close(start)
		wg.Wait()
		n := 0
		for i := range built {
			if built[i] {
				n++
			}
			if fmt.Sprintf("%p %p", builds[i].hash, builds[i].run) != fmt.Sprintf("%p %p", builds[0].hash, builds[0].run) {
				t.Errorf("%+v: worker %d was handed another build", k, i)
			}
		}
		if n != 1 {
			t.Errorf("%+v: %d workers built it, want 1", k, n)
		}
	}
}
