// Package keyenc provides order-preserving ("memcomparable") byte
// encodings of SQL values for use as index keys.
//
// The encoding guarantees that for any two values a, b of the same
// type, bytes.Compare(Encode(a), Encode(b)) has the same sign as the
// SQL comparison of a and b, and that encoded composite keys compare
// componentwise. NULL sorts before every non-NULL value.
package keyenc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Type tags prefixed to every encoded component so that heterogeneous
// columns never produce ambiguous byte strings. Within one index all
// components of a position share a tag, so ordering within the column
// is decided by the payload.
const (
	tagNull  byte = 0x01
	tagInt   byte = 0x02
	tagBytes byte = 0x03
	tagText  byte = 0x04
)

// escape/terminator pair for variable-length components: 0x00 bytes
// in the payload are escaped as 0x00 0xFF and the component is
// terminated by 0x00 0x01. Because 0x01 < 0xFF, a string that is a
// proper prefix of another sorts first, matching SQL semantics.
const (
	escByte  byte = 0x00
	escPad   byte = 0xFF
	termByte byte = 0x01
)

// AppendNull appends the encoding of SQL NULL.
func AppendNull(dst []byte) []byte { return append(dst, tagNull) }

// AppendInt appends an order-preserving encoding of a signed 64-bit
// integer: the value is offset by flipping the sign bit and stored
// big-endian.
func AppendInt(dst []byte, v int64) []byte {
	dst = append(dst, tagInt)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v)^(1<<63))
	return append(dst, buf[:]...)
}

// AppendBytes appends a variable-length byte-string component with
// 0x00-escaping and a terminator, preserving lexicographic order.
func AppendBytes(dst []byte, v []byte) []byte {
	dst = append(dst, tagBytes)
	return appendEscaped(dst, v)
}

// AppendText appends a text component. Text and bytes use the same
// escaping but different tags so they never collide in mixed keys.
func AppendText(dst []byte, v string) []byte {
	dst = append(dst, tagText)
	return appendEscaped(dst, []byte(v))
}

func appendEscaped(dst, v []byte) []byte {
	for _, b := range v {
		if b == escByte {
			dst = append(dst, escByte, escPad)
		} else {
			dst = append(dst, b)
		}
	}
	return append(dst, escByte, termByte)
}

// AppendBytesPrefix appends a byte-string component WITHOUT the
// terminator, for building range-scan bounds that match every key
// whose component has the given prefix. Only valid as the last
// component of a bound.
func AppendBytesPrefix(dst []byte, v []byte) []byte {
	dst = append(dst, tagBytes)
	for _, b := range v {
		if b == escByte {
			dst = append(dst, escByte, escPad)
		} else {
			dst = append(dst, b)
		}
	}
	return dst
}

var errTruncated = errors.New("keyenc: truncated encoding")

// DecodeNext decodes the next component of an encoded key, returning
// the value (nil for NULL, int64, []byte or string) and the remaining
// bytes. It is used by index scans that need to recover values.
func DecodeNext(key []byte) (interface{}, []byte, error) {
	if len(key) == 0 {
		return nil, nil, errTruncated
	}
	switch key[0] {
	case tagNull:
		return nil, key[1:], nil
	case tagInt:
		if len(key) < 9 {
			return nil, nil, errTruncated
		}
		u := binary.BigEndian.Uint64(key[1:9])
		return int64(u ^ (1 << 63)), key[9:], nil
	case tagBytes, tagText:
		payload, rest, err := decodeEscaped(key[1:])
		if err != nil {
			return nil, nil, err
		}
		if key[0] == tagText {
			return string(payload), rest, nil
		}
		return payload, rest, nil
	default:
		return nil, nil, fmt.Errorf("keyenc: unknown tag 0x%02x", key[0])
	}
}

func decodeEscaped(key []byte) (payload, rest []byte, err error) {
	out := make([]byte, 0, len(key))
	for i := 0; i < len(key); i++ {
		b := key[i]
		if b != escByte {
			out = append(out, b)
			continue
		}
		if i+1 >= len(key) {
			return nil, nil, errTruncated
		}
		switch key[i+1] {
		case escPad:
			out = append(out, escByte)
			i++
		case termByte:
			return out, key[i+2:], nil
		default:
			return nil, nil, fmt.Errorf("keyenc: bad escape 0x%02x", key[i+1])
		}
	}
	return nil, nil, errTruncated
}
