// Package engine implements the in-memory relational engine that
// plays the role of Oracle 10g in the paper's experiments: tables
// with typed columns, B+tree and transient hash indexes, a planner
// that picks join orders and index access paths, and an executor for
// the SQL dialect of package sqlast (joins, BETWEEN range predicates
// over binary strings, REGEXP_LIKE, correlated EXISTS and scalar
// COUNT subqueries, DISTINCT, ORDER BY and UNION).
package engine

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// Type is a column type.
type Type uint8

const (
	TInt Type = iota
	TFloat
	TText
	TBytes
)

func (t Type) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TText:
		return "TEXT"
	case TBytes:
		return "BYTES"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Kind is the runtime kind of a Value.
type Kind uint8

const (
	KNull Kind = iota
	KInt
	KFloat
	KText
	KBytes
	KBool
)

// Value is a runtime SQL value. The zero value is NULL.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	B    []byte
}

// Null is the NULL value.
var Null = Value{}

// NewInt, NewFloat, NewText, NewBytes and NewBool construct values.
func NewInt(v int64) Value     { return Value{Kind: KInt, I: v} }
func NewFloat(v float64) Value { return Value{Kind: KFloat, F: v} }
func NewText(v string) Value   { return Value{Kind: KText, S: v} }
func NewBytes(v []byte) Value  { return Value{Kind: KBytes, B: v} }
func NewBool(v bool) Value {
	if v {
		return Value{Kind: KBool, I: 1}
	}
	return Value{Kind: KBool}
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KNull }

// Truth returns the boolean truth of the value for WHERE filtering.
// NULL is not true (SQL's unknown filters rows out).
func (v Value) Truth() bool {
	switch v.Kind {
	case KBool, KInt:
		return v.I != 0
	case KFloat:
		return v.F != 0
	case KText:
		return v.S != ""
	case KBytes:
		return len(v.B) != 0
	default:
		return false
	}
}

// String renders the value for result output.
func (v Value) String() string {
	switch v.Kind {
	case KNull:
		return "NULL"
	case KInt:
		return strconv.FormatInt(v.I, 10)
	case KFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KText:
		return v.S
	case KBytes:
		return fmt.Sprintf("X'%X'", v.B)
	case KBool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// Compare compares two values with SQL-style numeric coercion:
// numbers compare numerically (text that parses as a number is
// coerced when compared against a number), text compares
// lexicographically, and byte strings compare lexicographically. The
// second return is false when the values are incomparable or either
// is NULL.
func Compare(a, b Value) (int, bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	// Bytes compare only with bytes.
	if a.Kind == KBytes || b.Kind == KBytes {
		if a.Kind != KBytes || b.Kind != KBytes {
			return 0, false
		}
		return bytes.Compare(a.B, b.B), true
	}
	// Pure text-to-text compares lexicographically.
	if a.Kind == KText && b.Kind == KText {
		return strings.Compare(a.S, b.S), true
	}
	// Otherwise numeric comparison with coercion.
	af, aok := a.numeric()
	bf, bok := b.numeric()
	if !aok || !bok {
		return 0, false
	}
	switch {
	case af < bf:
		return -1, true
	case af > bf:
		return 1, true
	}
	return 0, true
}

// numeric coerces the value to float64 if possible.
func (v Value) numeric() (float64, bool) {
	switch v.Kind {
	case KInt, KBool:
		return float64(v.I), true
	case KFloat:
		return v.F, true
	case KText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// Equal reports SQL equality under the same coercion as Compare.
func Equal(a, b Value) bool {
	c, ok := Compare(a, b)
	return ok && c == 0
}

// Concat implements the || operator on text and byte strings. A text
// operand concatenated with bytes is converted to its raw bytes.
func Concat(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if a.Kind == KBytes || b.Kind == KBytes {
		ab, ok1 := a.rawBytes()
		bb, ok2 := b.rawBytes()
		if !ok1 || !ok2 {
			return Null, fmt.Errorf("engine: cannot concatenate %s and %s", a.Kind, b.Kind)
		}
		out := make([]byte, 0, len(ab)+len(bb))
		out = append(out, ab...)
		out = append(out, bb...)
		return NewBytes(out), nil
	}
	return NewText(a.String() + b.String()), nil
}

// compareConcat is bytes.Compare(x, a || b), without building a || b.
func compareConcat(x, a, b []byte) int {
	if len(x) < len(a) {
		if c := bytes.Compare(x, a[:len(x)]); c != 0 {
			return c
		}
		return -1 // x is a proper prefix of a
	}
	if c := bytes.Compare(x[:len(a)], a); c != 0 {
		return c
	}
	return bytes.Compare(x[len(a):], b)
}

func (v Value) rawBytes() ([]byte, bool) {
	switch v.Kind {
	case KBytes:
		return v.B, true
	case KText:
		return []byte(v.S), true
	default:
		return nil, false
	}
}

func (k Kind) String() string {
	switch k {
	case KNull:
		return "NULL"
	case KInt:
		return "INT"
	case KFloat:
		return "FLOAT"
	case KText:
		return "TEXT"
	case KBytes:
		return "BYTES"
	case KBool:
		return "BOOL"
	}
	return "?"
}

// Arith applies an arithmetic operator with numeric coercion.
func Arith(op byte, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	// Integer fast path for +,-,* and exact division.
	if a.Kind == KInt && b.Kind == KInt {
		switch op {
		case '+':
			return NewInt(a.I + b.I), nil
		case '-':
			return NewInt(a.I - b.I), nil
		case '*':
			return NewInt(a.I * b.I), nil
		case '%':
			if b.I == 0 {
				return Null, fmt.Errorf("engine: modulo by zero")
			}
			return NewInt(a.I % b.I), nil
		case '/':
			if b.I == 0 {
				return Null, fmt.Errorf("engine: division by zero")
			}
			if a.I%b.I == 0 {
				return NewInt(a.I / b.I), nil
			}
		}
	}
	af, aok := a.numeric()
	bf, bok := b.numeric()
	if !aok || !bok {
		return Null, fmt.Errorf("engine: non-numeric operand for arithmetic (%s, %s)", a.Kind, b.Kind)
	}
	switch op {
	case '+':
		return NewFloat(af + bf), nil
	case '-':
		return NewFloat(af - bf), nil
	case '*':
		return NewFloat(af * bf), nil
	case '/':
		if bf == 0 {
			return Null, fmt.Errorf("engine: division by zero")
		}
		return NewFloat(af / bf), nil
	case '%':
		if bf == 0 {
			return Null, fmt.Errorf("engine: modulo by zero")
		}
		return NewFloat(float64(int64(af) % int64(bf))), nil
	}
	return Null, fmt.Errorf("engine: unknown arithmetic operator %q", op)
}
