// Package dewey implements the binary Dewey position encoding of
// Georgiadis & Vassalos (EDBT 2006), Section 4.2.
//
// A Dewey position identifies a node by the path of local sibling
// ordinals from the document root down to the node. The encoding packs
// each ordinal into a fixed 3-byte component whose first bit is zero,
// so a component ranges from 0 to 0x7FFFFF. Because no component can
// begin with a byte >= 0x80, appending the sentinel byte 0xFF to a
// position d yields a string that is lexicographically greater than
// the position of every descendant of d but smaller than the position
// of any node following d in document order. All XPath axes therefore
// reduce to lexicographic byte-string comparisons (Table 2 of the
// paper; Lemmas 1 and 2).
package dewey

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ComponentSize is the width in bytes of one encoded ordinal.
const ComponentSize = 3

// MaxOrdinal is the largest sibling ordinal a component can hold.
const MaxOrdinal = 0x7FFFFF

// Sentinel is the byte appended to a position to form the exclusive
// upper bound of its descendant range. Any byte >= 0x80 works; the
// paper uses 'F' (hex notation for 0xFF).
const Sentinel byte = 0xFF

// Pos is an encoded Dewey position: a concatenation of 3-byte
// components. The zero value (empty) is the position of a virtual
// super-root above the document root and is a prefix of every
// position.
type Pos []byte

var errBadLength = errors.New("dewey: encoded length is not a multiple of the component size")

// New builds a position from a vector of sibling ordinals, e.g.
// New(1, 1, 2) for the node "1.1.2" in the paper's Figure 1.
func New(ordinals ...int) Pos {
	p := make(Pos, 0, len(ordinals)*ComponentSize)
	for _, o := range ordinals {
		p = p.Child(o)
	}
	return p
}

// Child returns the position of the child of p with local ordinal ord
// (1-based in documents, though 0 is representable). It panics if ord
// is out of the encodable range; shredding must not produce such
// fan-outs.
func (p Pos) Child(ord int) Pos {
	if ord < 0 || ord > MaxOrdinal {
		panic(fmt.Sprintf("dewey: ordinal %d out of range [0, %d]", ord, MaxOrdinal))
	}
	c := make(Pos, len(p), len(p)+ComponentSize)
	copy(c, p)
	return append(c, byte(ord>>16), byte(ord>>8), byte(ord))
}

// Valid reports whether p is a structurally valid encoding: a whole
// number of components, each with its top bit clear.
func (p Pos) Valid() bool {
	if len(p)%ComponentSize != 0 {
		return false
	}
	for i := 0; i < len(p); i += ComponentSize {
		if p[i]&0x80 != 0 {
			return false
		}
	}
	return true
}

// Level is the depth of the node: the number of components. The
// document root has level 1.
func (p Pos) Level() int { return len(p) / ComponentSize }

// Ordinals decodes p back into its ordinal vector.
func (p Pos) Ordinals() ([]int, error) {
	if len(p)%ComponentSize != 0 {
		return nil, errBadLength
	}
	out := make([]int, 0, p.Level())
	for i := 0; i < len(p); i += ComponentSize {
		out = append(out, int(p[i])<<16|int(p[i+1])<<8|int(p[i+2]))
	}
	return out, nil
}

// Parent returns the position of p's parent and true, or nil and
// false if p is the root (or empty).
func (p Pos) Parent() (Pos, bool) {
	if len(p) < ComponentSize {
		return nil, false
	}
	return p[:len(p)-ComponentSize], true
}

// LocalOrder returns the node's ordinal among its siblings (the last
// component), or 0 for the empty position.
func (p Pos) LocalOrder() int {
	if len(p) < ComponentSize {
		return 0
	}
	i := len(p) - ComponentSize
	return int(p[i])<<16 | int(p[i+1])<<8 | int(p[i+2])
}

// DescendantLimit returns the exclusive lexicographic upper bound of
// the range spanned by p and all of its descendants: p || Sentinel.
// Together with p itself as the (exclusive, for proper descendants)
// lower bound it implements Lemma 1.
func (p Pos) DescendantLimit() Pos {
	l := make(Pos, len(p), len(p)+1)
	copy(l, p)
	return append(l, Sentinel)
}

// Compare is a lexicographic byte comparison: -1, 0 or +1.
func Compare(a, b Pos) int { return bytes.Compare(a, b) }

// IsDescendant reports whether n is a proper descendant of m
// (Lemma 1: d(n) > d(m) and d(n) < d(m)||0xFF).
func IsDescendant(n, m Pos) bool {
	return bytes.Compare(n, m) > 0 && bytes.Compare(n, m.DescendantLimit()) < 0
}

// IsDescendantOrSelf reports whether n is m or a descendant of m.
func IsDescendantOrSelf(n, m Pos) bool {
	return bytes.Compare(n, m) >= 0 && bytes.Compare(n, m.DescendantLimit()) < 0
}

// IsAncestor reports whether n is a proper ancestor of m.
func IsAncestor(n, m Pos) bool { return IsDescendant(m, n) }

// IsFollowing reports whether n follows m in document order and is
// not a descendant of m (Lemma 2: d(n) > d(m)||0xFF).
func IsFollowing(n, m Pos) bool {
	return bytes.Compare(n, m.DescendantLimit()) > 0
}

// IsPreceding reports whether n precedes m in document order and is
// not an ancestor of m.
func IsPreceding(n, m Pos) bool { return IsFollowing(m, n) }

// IsFollowingSibling reports whether n is a following sibling of m:
// same parent, greater local order.
func IsFollowingSibling(n, m Pos) bool {
	np, nok := n.Parent()
	mp, mok := m.Parent()
	return nok && mok && bytes.Equal(np, mp) && bytes.Compare(n, m) > 0
}

// IsPrecedingSibling reports whether n is a preceding sibling of m.
func IsPrecedingSibling(n, m Pos) bool { return IsFollowingSibling(m, n) }

// IsChild reports whether n is a child of m.
func IsChild(n, m Pos) bool {
	np, ok := n.Parent()
	return ok && bytes.Equal(np, m)
}

// String renders p in the dotted decimal notation of the paper's
// Figure 1(c), e.g. "1.1.2". Invalid encodings render as hex. Every
// result node is rendered once, so the components are decoded in place
// into one buffer, on the stack for positions of ordinary depth.
func (p Pos) String() string {
	if len(p)%ComponentSize != 0 {
		return fmt.Sprintf("dewey(%x)", []byte(p))
	}
	var stack [64]byte
	buf := stack[:0]
	if need := p.Level() * 8; need > len(stack) { // 7 digits and a dot each
		buf = make([]byte, 0, need)
	}
	for i := 0; i < len(p); i += ComponentSize {
		if i > 0 {
			buf = append(buf, '.')
		}
		buf = strconv.AppendUint(buf, uint64(p[i])<<16|uint64(p[i+1])<<8|uint64(p[i+2]), 10)
	}
	return string(buf)
}

// Parse is the inverse of String: it parses dotted decimal notation.
func Parse(s string) (Pos, error) {
	if s == "" {
		return Pos{}, nil
	}
	parts := strings.Split(s, ".")
	ords := make([]int, len(parts))
	for i, part := range parts {
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("dewey: parse %q: %w", s, err)
		}
		if n < 0 || n > MaxOrdinal {
			return nil, fmt.Errorf("dewey: parse %q: ordinal %d out of range", s, n)
		}
		ords[i] = n
	}
	return New(ords...), nil
}

// WithRoot returns a copy of p with its first component replaced by
// ord. Shredders use it to give every document a distinct root
// component (the document id), so Dewey ranges of different documents
// never overlap and structural joins cannot match across documents.
func WithRoot(p Pos, ord int) Pos {
	if len(p) < ComponentSize {
		return New(ord)
	}
	if ord < 0 || ord > MaxOrdinal {
		panic(fmt.Sprintf("dewey: root ordinal %d out of range", ord))
	}
	out := make(Pos, len(p))
	copy(out, p)
	out[0], out[1], out[2] = byte(ord>>16), byte(ord>>8), byte(ord)
	return out
}

// CommonAncestor returns the position of the lowest common ancestor
// of a and b (possibly the empty super-root position).
func CommonAncestor(a, b Pos) Pos {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	n -= n % ComponentSize
	i := 0
	for i < n && bytes.Equal(a[i:i+ComponentSize], b[i:i+ComponentSize]) {
		i += ComponentSize
	}
	out := make(Pos, i)
	copy(out, a[:i])
	return out
}
