package keyenc

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestIntOrderPreserved(t *testing.T) {
	vals := []int64{-1 << 62, -100, -1, 0, 1, 7, 100, 1 << 40, 1<<62 + 3}
	var prev []byte
	for i, v := range vals {
		enc := AppendInt(nil, v)
		if i > 0 && bytes.Compare(prev, enc) >= 0 {
			t.Errorf("encoding of %d not greater than predecessor", v)
		}
		got, rest, err := DecodeNext(enc)
		if err != nil || len(rest) != 0 || got.(int64) != v {
			t.Errorf("round trip %d -> %v (err %v)", v, got, err)
		}
		prev = enc
	}
}

func TestQuickIntOrder(t *testing.T) {
	f := func(a, b int64) bool {
		ea, eb := AppendInt(nil, a), AppendInt(nil, b)
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBytesOrder(t *testing.T) {
	f := func(a, b []byte) bool {
		ea, eb := AppendBytes(nil, a), AppendBytes(nil, b)
		return sign(bytes.Compare(ea, eb)) == sign(bytes.Compare(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTextRoundTrip(t *testing.T) {
	f := func(s string) bool {
		got, rest, err := DecodeNext(AppendText(nil, s))
		return err == nil && len(rest) == 0 && got.(string) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBytesRoundTrip(t *testing.T) {
	f := func(v []byte) bool {
		got, rest, err := DecodeNext(AppendBytes(nil, v))
		if err != nil || len(rest) != 0 {
			return false
		}
		b := got.([]byte)
		return bytes.Equal(b, v) || (len(v) == 0 && len(b) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}

func TestNullSortsFirst(t *testing.T) {
	null := AppendNull(nil)
	for _, enc := range [][]byte{
		AppendInt(nil, -1<<62),
		AppendBytes(nil, nil),
		AppendText(nil, ""),
	} {
		if bytes.Compare(null, enc) >= 0 {
			t.Errorf("NULL does not sort before %x", enc)
		}
	}
}

func TestCompositeKeysComponentwise(t *testing.T) {
	// (b"ab", 2) must sort before (b"ab", 10) and before (b"abc", 0).
	k1 := AppendInt(AppendBytes(nil, []byte("ab")), 2)
	k2 := AppendInt(AppendBytes(nil, []byte("ab")), 10)
	k3 := AppendInt(AppendBytes(nil, []byte("abc")), 0)
	if !(bytes.Compare(k1, k2) < 0 && bytes.Compare(k2, k3) < 0) {
		t.Errorf("composite ordering broken: %x %x %x", k1, k2, k3)
	}
}

func TestZeroBytesEscaping(t *testing.T) {
	// b"a\x00" vs b"a\x00\x00" vs b"a\x01": escaping must keep order.
	vals := [][]byte{{'a'}, {'a', 0}, {'a', 0, 0}, {'a', 0, 1}, {'a', 1}}
	encs := make([][]byte, len(vals))
	for i, v := range vals {
		encs[i] = AppendBytes(nil, v)
	}
	if !sort.SliceIsSorted(encs, func(i, j int) bool { return bytes.Compare(encs[i], encs[j]) < 0 }) {
		t.Error("escaped encodings not in value order")
	}
	for i, v := range vals {
		got, _, err := DecodeNext(encs[i])
		if err != nil || !bytes.Equal(got.([]byte), v) {
			t.Errorf("round trip %x -> %v (%v)", v, got, err)
		}
	}
}

func TestBytesPrefixBound(t *testing.T) {
	// A prefix bound must be <= every full key whose component extends it.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		p := randBytes(r, 4)
		ext := append(append([]byte{}, p...), randBytes(r, 3)...)
		bound := AppendBytesPrefix(nil, p)
		full := AppendBytes(nil, ext)
		if bytes.Compare(bound, full) > 0 {
			t.Fatalf("prefix bound %x > full key %x", bound, full)
		}
	}
}

func randBytes(r *rand.Rand, n int) []byte {
	out := make([]byte, r.Intn(n+1))
	for i := range out {
		out[i] = byte(r.Intn(4)) // skew toward 0x00 to exercise escaping
	}
	return out
}

func TestDecodeErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		{tagInt, 1, 2},
		{tagBytes, 'a'},
		{tagBytes, 0x00, 0x42},
		{0x77},
	}
	for _, k := range bad {
		if _, _, err := DecodeNext(k); err == nil {
			t.Errorf("DecodeNext(%x) should fail", k)
		}
	}
}

func TestMultiComponentDecode(t *testing.T) {
	key := AppendNull(AppendText(AppendInt(nil, 42), "hi"))
	v1, rest, err := DecodeNext(key)
	if err != nil || v1.(int64) != 42 {
		t.Fatalf("first component: %v %v", v1, err)
	}
	v2, rest, err := DecodeNext(rest)
	if err != nil || v2.(string) != "hi" {
		t.Fatalf("second component: %v %v", v2, err)
	}
	v3, rest, err := DecodeNext(rest)
	if err != nil || v3 != nil || len(rest) != 0 {
		t.Fatalf("third component: %v %v %v", v3, rest, err)
	}
	if !reflect.DeepEqual(rest, []byte{}) && rest != nil {
		t.Fatalf("trailing bytes: %x", rest)
	}
}
