package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestInsertDoesNotAliasCallerRows: a commit copies its rows' cells,
// so a caller that reuses its row slices and byte buffers once the
// insert returns changes no published state, in memory or in a
// persistent store (whose WAL holds what was inserted).
func TestInsertDoesNotAliasCallerRows(t *testing.T) {
	for _, persisted := range []bool{false, true} {
		t.Run(map[bool]string{false: "memory", true: "persisted"}[persisted], func(t *testing.T) {
			db, dir := NewDB(), t.TempDir()
			if persisted {
				var err error
				if db, err = Open(dir); err != nil {
					t.Fatal(err)
				}
				defer db.Close()
			}
			tb, err := db.CreateTable("t", Column{"id", TInt}, Column{"b", TBytes})
			if err != nil {
				t.Fatal(err)
			}
			buf := []byte{1, 2, 3}
			row := []Value{NewInt(1), NewBytes(buf)}
			if _, err := tb.Insert(row); err != nil {
				t.Fatal(err)
			}
			row[0] = NewInt(7)
			buf[0] = 9
			want := "id=1 b=X'010203'"
			read := func(tb *Table) string {
				got := tb.Rows()[0]
				return fmt.Sprintf("id=%s b=%s", got[0], got[1])
			}
			if got := read(tb); got != want {
				t.Fatalf("after the caller reused its row, the table reads %s, want %s", got, want)
			}
			if !persisted {
				return
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := read(re.Table("t")); got != want {
				t.Fatalf("the reopened store reads %s, want %s", got, want)
			}
		})
	}
}

// FuzzColumnStore checks column storage against a model of the rows
// inserted. Each input commits batches of rows (i INT, f FLOAT, s TEXT,
// b BYTES) to a durable table — NULLs in every column, integers among
// the floats, empty and absent text and bytes, and batches long enough
// to fill a chunk and start the next — and scribbles over every row and
// buffer it handed over once each commit returns. After every commit
// each state committed so far must read back exactly the rows it was
// committed with: the new state its own, every predecessor still its
// own. A checkpoint and a reopen must then dump the same store.
func FuzzColumnStore(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(40), uint8(30))
	f.Add(int64(2), uint8(4), uint16(chunkCells-3), uint8(5))
	f.Add(int64(3), uint8(2), uint16(2*chunkCells+1), uint8(90))
	f.Fuzz(func(t *testing.T, seed int64, commits uint8, perCommit uint16, nullPct uint8) {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		tb, err := db.CreateTable("T", Column{"i", TInt}, Column{"f", TFloat}, Column{"s", TText}, Column{"b", TBytes})
		if err != nil {
			t.Fatal(err)
		}
		var model [][]Value // the rows inserted, owned by the test
		var states []*tableState
		for c := 0; c < 1+int(commits)%5; c++ {
			rows := make([][]Value, 1+rng.Intn(1+int(perCommit)%(2*chunkCells+2)))
			for j := range rows {
				rows[j] = columnRow(rng, int(nullPct)%101)
				model = append(model, cloneRow(rows[j]))
			}
			if _, err := tb.InsertBatch(rows); err != nil {
				t.Fatal(err)
			}
			for _, row := range rows {
				for k := range row {
					if row[k].Kind == KBytes {
						for x := range row[k].B {
							row[k].B[x] = 0xEE
						}
					}
					row[k] = NewText("scribbled")
				}
			}
			states = append(states, tb.state())
			for _, st := range states {
				if err := readsBack(st, model[:st.n]); err != nil {
					t.Fatalf("after commit %d, the state of %d rows: %v", c, st.n, err)
				}
			}
		}

		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		want := dumpDB(db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if got := dumpDB(re); got != want {
			t.Fatalf("reopened store dumps\n%s\nwant\n%s", got, want)
		}
		if err := readsBack(re.Table("T").state(), model); err != nil {
			t.Fatalf("reopened: %v", err)
		}
	})
}

// columnRow draws a row (i INT, f FLOAT, s TEXT, b BYTES), each cell
// NULL with probability nullPct %.
func columnRow(rng *rand.Rand, nullPct int) []Value {
	row := make([]Value, 4)
	for k := range row {
		if rng.Intn(100) < nullPct {
			continue
		}
		switch k {
		case 0:
			row[k] = NewInt(rng.Int63() - rng.Int63())
		case 1:
			if rng.Intn(3) == 0 {
				row[k] = NewInt(int64(rng.Intn(1000)) - 500)
			} else {
				row[k] = NewFloat(rng.NormFloat64() * 1e6)
			}
		case 2:
			row[k] = NewText(string(randomBytes(rng)))
		case 3:
			b := randomBytes(rng)
			if len(b) == 0 && rng.Intn(2) == 0 {
				b = nil
			}
			row[k] = NewBytes(b)
		}
	}
	return row
}

// randomBytes draws a payload of 0 to 40 bytes, empty one time in four.
func randomBytes(rng *rand.Rand) []byte {
	if rng.Intn(4) == 0 {
		return []byte{}
	}
	b := make([]byte, rng.Intn(41))
	rng.Read(b)
	return b
}

func cloneRow(row []Value) []Value {
	out := make([]Value, len(row))
	for k, v := range row {
		if v.Kind == KBytes {
			v.B = bytes.Clone(v.B)
		}
		out[k] = v
	}
	return out
}

// readsBack reports the first cell of st that does not read back as
// want holds it, or a row count that differs.
func readsBack(st *tableState, want [][]Value) error {
	if st.n != len(want) {
		return fmt.Errorf("%d rows, want %d", st.n, len(want))
	}
	for id, row := range want {
		for k, w := range row {
			got := st.cols[k].value(int64(id))
			same := got.Kind == w.Kind
			switch {
			case !same:
			case w.Kind == KInt:
				same = got.I == w.I
			case w.Kind == KFloat:
				same = math.Float64bits(got.F) == math.Float64bits(w.F)
			case w.Kind == KText:
				same = got.S == w.S
			case w.Kind == KBytes:
				same = bytes.Equal(got.B, w.B) && cap(got.B) == len(got.B)
			}
			if !same {
				return fmt.Errorf("row %d column %d reads %v %v, want %v %v", id, k, got.Kind, got, w.Kind, w)
			}
		}
	}
	return nil
}
