package dewey

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewAndOrdinals(t *testing.T) {
	cases := [][]int{
		{},
		{1},
		{1, 1, 2},
		{1, 2, 1, 1},
		{0},
		{MaxOrdinal},
		{1, MaxOrdinal, 3},
	}
	for _, ords := range cases {
		p := New(ords...)
		if !p.Valid() {
			t.Errorf("New(%v) produced invalid encoding %x", ords, []byte(p))
		}
		got, err := p.Ordinals()
		if err != nil {
			t.Fatalf("Ordinals(%v): %v", ords, err)
		}
		if len(ords) == 0 {
			if len(got) != 0 {
				t.Errorf("Ordinals of empty = %v", got)
			}
			continue
		}
		if !reflect.DeepEqual(got, ords) {
			t.Errorf("round trip %v -> %v", ords, got)
		}
	}
}

func TestChildPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Child(MaxOrdinal+1) did not panic")
		}
	}()
	New(1).Child(MaxOrdinal + 1)
}

func TestLevelParentLocalOrder(t *testing.T) {
	p := New(1, 1, 2)
	if p.Level() != 3 {
		t.Errorf("Level = %d, want 3", p.Level())
	}
	if p.LocalOrder() != 2 {
		t.Errorf("LocalOrder = %d, want 2", p.LocalOrder())
	}
	par, ok := p.Parent()
	if !ok || par.String() != "1.1" {
		t.Errorf("Parent = %v, %v", par, ok)
	}
	root := New(1)
	gp, ok := root.Parent()
	if !ok || gp.Level() != 0 {
		t.Errorf("Parent of root = %v, %v; want empty", gp, ok)
	}
	if _, ok := (Pos{}).Parent(); ok {
		t.Error("Parent of empty should report false")
	}
	if (Pos{}).LocalOrder() != 0 {
		t.Error("LocalOrder of empty should be 0")
	}
}

func TestStringParse(t *testing.T) {
	for _, s := range []string{"", "1", "1.1.2", "0.5.8388607"} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if s == "" {
			if p.Level() != 0 {
				t.Errorf("Parse empty gave level %d", p.Level())
			}
			continue
		}
		if p.String() != s {
			t.Errorf("Parse/String round trip %q -> %q", s, p.String())
		}
	}
	for _, s := range []string{"x", "1..2", "-1", "8388608"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

// TestStringRendering pins String against the rendering it replaced —
// Ordinals joined with dots — over shallow, deep (past the stack
// buffer), extreme-ordinal and invalid positions, and its cost: one
// allocation, the string itself.
func TestStringRendering(t *testing.T) {
	deep := make([]int, 40)
	for i := range deep {
		deep[i] = MaxOrdinal - i
	}
	for _, p := range []Pos{{}, New(1), New(1, 1, 2), New(0, 5, MaxOrdinal), New(deep...),
		{0x80, 0x00, 0x00}, {0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x01}, {0x01}, {0x00, 0x00, 0x01, 0x02}} {
		if got, want := p.String(), referenceString(p); got != want {
			t.Errorf("String of %x = %q, want %q", []byte(p), got, want)
		}
		if !p.Valid() {
			continue
		}
		q, err := Parse(p.String())
		if err != nil || !bytes.Equal(q, p) {
			t.Errorf("Parse(String()) of %x = %x, %v", []byte(p), []byte(q), err)
		}
	}
	p := New(1, 12, 123, 1234, 12345)
	if n := testing.AllocsPerRun(100, func() { _ = p.String() }); n > 1 {
		t.Errorf("String allocates %v times, want at most 1", n)
	}
}

// referenceString is the rendering String is pinned to: the ordinals
// joined with dots, hex for an encoding that is no whole number of
// components.
func referenceString(p Pos) string {
	ords, err := p.Ordinals()
	if err != nil {
		return fmt.Sprintf("dewey(%x)", []byte(p))
	}
	parts := make([]string, len(ords))
	for i, o := range ords {
		parts[i] = strconv.Itoa(o)
	}
	return strings.Join(parts, ".")
}

func TestPaperFigure1Relationships(t *testing.T) {
	// The node ids and Dewey positions of the paper's Figure 1(c).
	nodes := map[int]Pos{
		1:  New(1),
		2:  New(1, 1),
		3:  New(1, 1, 1),
		4:  New(1, 1, 1, 1),
		5:  New(1, 1, 2),
		6:  New(1, 1, 2, 1),
		7:  New(1, 1, 2, 1, 1),
		8:  New(1, 1, 2, 1, 2),
		9:  New(1, 1, 3),
		10: New(1, 2),
		11: New(1, 2, 1),
		12: New(1, 2, 1, 1),
	}
	// Descendants of node 2 (B): 3,4,5,6,7,8,9.
	wantDesc := map[int]bool{3: true, 4: true, 5: true, 6: true, 7: true, 8: true, 9: true}
	for id, p := range nodes {
		got := IsDescendant(p, nodes[2])
		if got != wantDesc[id] {
			t.Errorf("IsDescendant(node %d, node 2) = %v, want %v", id, got, wantDesc[id])
		}
	}
	// Following nodes of node 5 (C at 1.1.2): 9, 10, 11, 12.
	wantFoll := map[int]bool{9: true, 10: true, 11: true, 12: true}
	for id, p := range nodes {
		got := IsFollowing(p, nodes[5])
		if got != wantFoll[id] {
			t.Errorf("IsFollowing(node %d, node 5) = %v, want %v", id, got, wantFoll[id])
		}
	}
	// Sibling relationships among 3, 5, 9 (children of 2).
	if !IsFollowingSibling(nodes[9], nodes[3]) || !IsPrecedingSibling(nodes[3], nodes[9]) {
		t.Error("sibling relationship between nodes 3 and 9 not detected")
	}
	if IsFollowingSibling(nodes[10], nodes[9]) {
		t.Error("nodes 9 and 10 have different parents; not siblings")
	}
	if !IsChild(nodes[4], nodes[3]) || IsChild(nodes[4], nodes[2]) {
		t.Error("IsChild misclassified grandchild")
	}
	if !IsAncestor(nodes[1], nodes[12]) {
		t.Error("root should be ancestor of node 12")
	}
	if !IsDescendantOrSelf(nodes[2], nodes[2]) || IsDescendant(nodes[2], nodes[2]) {
		t.Error("self handling wrong")
	}
}

func TestCommonAncestor(t *testing.T) {
	a := New(1, 1, 2, 1)
	b := New(1, 1, 3)
	if got := CommonAncestor(a, b); got.String() != "1.1" {
		t.Errorf("CommonAncestor = %v, want 1.1", got)
	}
	if got := CommonAncestor(a, New(2)); got.Level() != 0 {
		t.Errorf("CommonAncestor of disjoint trees = %v, want empty", got)
	}
	if got := CommonAncestor(a, a); !bytes.Equal(got, a) {
		t.Errorf("CommonAncestor(a,a) = %v", got)
	}
}

// randPos builds a random valid position of depth 1..6 with small
// ordinals plus occasional extreme ordinals.
func randPos(r *rand.Rand) Pos {
	depth := 1 + r.Intn(6)
	ords := make([]int, depth)
	for i := range ords {
		switch r.Intn(10) {
		case 0:
			ords[i] = MaxOrdinal
		case 1:
			ords[i] = r.Intn(1 << 16)
		default:
			ords[i] = 1 + r.Intn(5)
		}
	}
	return New(ords...)
}

// ordinalsRelation computes the axis relationship from the decoded
// ordinal vectors — the ground truth the lexicographic comparisons
// must agree with.
func ordinalsDescendant(n, m []int) bool {
	if len(n) <= len(m) {
		return false
	}
	for i := range m {
		if n[i] != m[i] {
			return false
		}
	}
	return true
}

func ordinalsDocLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func TestQuickAxisLemmas(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func() bool {
		n, m := randPos(r), randPos(r)
		no, _ := n.Ordinals()
		mo, _ := m.Ordinals()
		wantDesc := ordinalsDescendant(no, mo)
		if IsDescendant(n, m) != wantDesc {
			t.Logf("descendant mismatch: n=%v m=%v", n, m)
			return false
		}
		// following = after in document order and not a descendant.
		wantFoll := ordinalsDocLess(mo, no) && !wantDesc
		if IsFollowing(n, m) != wantFoll {
			t.Logf("following mismatch: n=%v m=%v", n, m)
			return false
		}
		if IsPreceding(n, m) != (ordinalsDocLess(no, mo) && !ordinalsDescendant(mo, no)) {
			t.Logf("preceding mismatch: n=%v m=%v", n, m)
			return false
		}
		// Document order must coincide with lexicographic order of encodings.
		if (Compare(n, m) < 0) != ordinalsDocLess(no, mo) && Compare(n, m) != 0 {
			t.Logf("order mismatch: n=%v m=%v", n, m)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDescendantLimitTight(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		m := randPos(r)
		lim := m.DescendantLimit()
		// Every child, even with the maximum ordinal, stays below the limit.
		c := m.Child(MaxOrdinal)
		if bytes.Compare(c, lim) >= 0 {
			return false
		}
		// A following sibling (if representable) exceeds the limit.
		if m.LocalOrder() < MaxOrdinal {
			par, _ := m.Parent()
			sib := par.Child(m.LocalOrder() + 1)
			if bytes.Compare(sib, lim) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestValidRejectsBadEncodings(t *testing.T) {
	if (Pos{0x01}).Valid() {
		t.Error("partial component should be invalid")
	}
	if (Pos{0x80, 0x00, 0x00}).Valid() {
		t.Error("component with high bit set should be invalid")
	}
	if _, err := (Pos{0x01}).Ordinals(); err == nil {
		t.Error("Ordinals of partial component should fail")
	}
	if s := (Pos{0x01}).String(); s == "" {
		t.Error("String of invalid encoding should still render")
	}
}
