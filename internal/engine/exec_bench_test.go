package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// q6Rows synthesizes ORDER BY key vectors shaped like Q6's
// DISTINCT+ORDER BY output (a text column plus an integer id), the
// workload the memcomparable sort path targets.
func q6Rows(n int) []orderedRow {
	rows := make([]orderedRow, n)
	rnd := uint64(0x9E3779B97F4A7C15)
	for i := range rows {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		text := NewText(fmt.Sprintf("item-%05d", rnd%5000))
		id := NewInt(int64(rnd % 100000))
		rows[i] = orderedRow{row: []Value{text, id}, keys: []Value{text, id}}
	}
	return rows
}

// BenchmarkSortRowsEncoded measures the memcomparable-key sort used
// when key kinds are uniform: one encode pass, then bytes.Compare.
func BenchmarkSortRowsEncoded(b *testing.B) {
	src := q6Rows(4096)
	desc := []bool{false, true}
	work := make([]orderedRow, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		sortRows(work, desc)
	}
}

// BenchmarkSortRowsGeneric measures the fallback value-by-value
// comparison sort on the same rows (the pre-change behavior).
func BenchmarkSortRowsGeneric(b *testing.B) {
	src := q6Rows(4096)
	desc := []bool{false, true}
	work := make([]orderedRow, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		sortRowsGeneric(work, desc)
	}
}

// BenchmarkDistinctOrderByQuery runs a whole Q6-shaped
// DISTINCT+ORDER BY query end to end (dedup via rowKey plus the sort)
// against the multi-morsel synthetic database.
func BenchmarkDistinctOrderByQuery(b *testing.B) {
	db := bigDB(b)
	p := mustPrepare(b, db, "SELECT DISTINCT i.text, i.path_id FROM item i ORDER BY i.text, i.path_id")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RunWithOptionsContext(nil, ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexLookup times one equality lookup on an index of a
// table of 170 000 rows (id INT, par INT) holding a random tree in
// document order: id rises with the row id, so its index stores no run,
// and par does not, so its index keeps an explicit run. Each lookup
// probes a key some row holds.
func BenchmarkIndexLookup(b *testing.B) {
	const rows = 170000
	db := NewDB()
	tb, err := db.CreateTable("t", Column{"id", TInt}, Column{"par", TInt})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	batch := make([][]Value, rows)
	open := []int64{1} // the ancestors of the next node, the root first
	batch[0] = []Value{NewInt(1), Null}
	for i := 1; i < rows; i++ {
		open = open[:1+rng.Intn(len(open))]
		id := int64(i + 1)
		batch[i] = []Value{NewInt(id), NewInt(open[len(open)-1])}
		if len(open) < 12 {
			open = append(open, id)
		}
	}
	if _, err := tb.InsertBatch(batch); err != nil {
		b.Fatal(err)
	}
	for _, col := range []string{"id", "par"} {
		if _, err := tb.CreateIndex("t_"+col, col); err != nil {
			b.Fatal(err)
		}
	}
	st := tb.state()
	for c, ix := range st.indexes {
		keys := make([]Value, 4096)
		for i := range keys {
			for keys[i].IsNull() {
				keys[i] = batch[rng.Intn(rows)][c]
			}
		}
		b.Run(tb.Cols[c].Name, func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				s := ix.equal(keys[i&4095 : i&4095+1])
				hits += s.hi - s.lo
			}
			if hits < b.N {
				b.Fatalf("%d lookups found %d rows", b.N, hits)
			}
		})
	}
}
