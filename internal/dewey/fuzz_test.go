package dewey

import (
	"bytes"
	"testing"
)

// FuzzDeweyDecode feeds arbitrary bytes to every Pos accessor: none
// may panic, whatever the encoding (tuples can carry corrupt blobs).
// String must render what the ordinals joined with dots render (hex
// for a ragged encoding), and for structurally valid encodings the
// textual round trip must be exact: Parse(p.String()) == p.
func FuzzDeweyDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(New(1)))
	f.Add([]byte(New(1, 1, 2)))
	f.Add([]byte(New(0, MaxOrdinal)))
	f.Add([]byte{0x00, 0x00})               // truncated component
	f.Add([]byte{0x80, 0x00, 0x00})         // top bit set
	f.Add([]byte{Sentinel})                 // bare sentinel
	f.Add(append([]byte(New(2)), Sentinel)) // descendant limit form
	f.Fuzz(func(t *testing.T, data []byte) {
		p := Pos(data)
		valid := p.Valid()
		if got, want := p.String(), referenceString(p); got != want {
			t.Fatalf("String of %x = %q, want %q", data, got, want)
		}
		_ = p.Level()
		_ = p.LocalOrder()
		_ = p.DescendantLimit()
		if par, ok := p.Parent(); ok {
			_ = par.String()
		}
		_ = CommonAncestor(p, p)
		_, ordErr := p.Ordinals()
		if len(data)%ComponentSize == 0 && ordErr != nil {
			t.Fatalf("Ordinals() = %v for whole-component encoding %x", ordErr, data)
		}
		if !valid {
			return
		}
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(String()) of valid %x: %v", data, err)
		}
		if !bytes.Equal(q, p) {
			t.Fatalf("round trip of %x: got %x", data, []byte(q))
		}
		if Compare(p, p.DescendantLimit()) >= 0 {
			t.Fatalf("DescendantLimit of %x does not bound it above", data)
		}
	})
}
