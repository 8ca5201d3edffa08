package pathre

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

func TestTable1Patterns(t *testing.T) {
	// The regular-expression equivalents from Table 1 of the paper.
	cases := []struct {
		pattern string
		match   []string
		reject  []string
	}{
		{`^.*/B/C$`,
			[]string{"/A/B/C", "/B/C", "/A/X/B/C"},
			[]string{"/A/B/C/D", "/A/B", "/A/BB/C"}},
		{`^/A/B/(.+/)?F$`,
			[]string{"/A/B/F", "/A/B/C/F", "/A/B/C/E/F"},
			[]string{"/A/F", "/A/B/F/G", "/X/A/B/F"}},
		{`^.*/C/[^/]+/F$`,
			[]string{"/A/B/C/D/F", "/C/E/F"},
			[]string{"/C/F", "/C/D/E/F"}},
		{`^.*/A/B/(.+/)?F$`,
			[]string{"/X/A/B/F", "/A/B/C/F"},
			[]string{"/A/B", "/B/A/F"}},
	}
	for _, c := range cases {
		re := MustCompile(c.pattern)
		for _, s := range c.match {
			if !re.MatchString(s) {
				t.Errorf("%q should match %q", c.pattern, s)
			}
		}
		for _, s := range c.reject {
			if re.MatchString(s) {
				t.Errorf("%q should not match %q", c.pattern, s)
			}
		}
	}
}

func TestLiteralFastPath(t *testing.T) {
	re := MustCompile(`^/A/B$`)
	if re.literal == nil {
		t.Fatal("anchored literal pattern did not take the literal fast path")
	}
	if !re.MatchString("/A/B") || re.MatchString("/A/B/C") || re.MatchString("x/A/B") {
		t.Fatal("literal fast path mismatch")
	}
}

func TestPrefixSuffixFastPath(t *testing.T) {
	re := MustCompile(`^/A/.*/F$`)
	if re.prefix == nil {
		t.Fatal("prefix/suffix pattern did not take the fast path")
	}
	if !re.MatchString("/A/B/C/F") || re.MatchString("/A/F") /* needs the middle */ {
		t.Fatal("prefix/suffix semantics wrong")
	}
	// Overlap: '^/A.*A$' must not match "/A" (length check).
	re2 := MustCompile(`^/A.*A$`)
	if re2.MatchString("/A") {
		t.Fatal("overlapping prefix/suffix matched short input")
	}
	if !re2.MatchString("/AA") || !re2.MatchString("/AxxA") {
		t.Fatal("prefix/suffix should match")
	}
}

func TestUnanchoredSubstringSemantics(t *testing.T) {
	// POSIX ERE: pattern without anchors matches any substring.
	re := MustCompile(`B/C`)
	if !re.MatchString("/A/B/C/D") {
		t.Fatal("substring match failed")
	}
	if re.MatchString("/A/B") {
		t.Fatal("false substring match")
	}
}

func TestAlternation(t *testing.T) {
	re := MustCompile(`^(/A|/B)/C$`)
	for s, want := range map[string]bool{"/A/C": true, "/B/C": true, "/C": false, "/A/B/C": false} {
		if re.MatchString(s) != want {
			t.Errorf("match %q = %v, want %v", s, !want, want)
		}
	}
}

func TestQuantifiers(t *testing.T) {
	cases := []struct {
		pattern string
		inputs  map[string]bool
	}{
		{`^a*$`, map[string]bool{"": true, "a": true, "aaaa": true, "ab": false}},
		{`^a+$`, map[string]bool{"": false, "a": true, "aaa": true}},
		{`^a?b$`, map[string]bool{"b": true, "ab": true, "aab": false}},
		{`^(ab)+$`, map[string]bool{"ab": true, "abab": true, "aba": false, "": false}},
		{`^(a|b)*c$`, map[string]bool{"c": true, "abbac": true, "abd": false}},
	}
	for _, c := range cases {
		re := MustCompile(c.pattern)
		for s, want := range c.inputs {
			if got := re.MatchString(s); got != want {
				t.Errorf("%q match %q = %v, want %v", c.pattern, s, got, want)
			}
		}
	}
}

func TestClasses(t *testing.T) {
	re := MustCompile(`^[^/]+$`)
	if !re.MatchString("abc") || re.MatchString("a/b") || re.MatchString("") {
		t.Fatal("negated class semantics wrong")
	}
	re = MustCompile(`^[a-c0-2]+$`)
	if !re.MatchString("ab2c0") || re.MatchString("d") || re.MatchString("3") {
		t.Fatal("range class semantics wrong")
	}
	re = MustCompile(`^[-a]$`) // literal '-' at edges... our parser: '-' first is literal
	if !re.MatchString("-") || !re.MatchString("a") {
		t.Fatal("leading dash should be literal")
	}
	re = MustCompile(`^[]a]$`) // ']' first is literal per POSIX
	if !re.MatchString("]") || !re.MatchString("a") {
		t.Fatal("leading ] should be literal")
	}
}

func TestEscapes(t *testing.T) {
	re := MustCompile(`^a\.b$`)
	if !re.MatchString("a.b") || re.MatchString("axb") {
		t.Fatal("escaped dot semantics wrong")
	}
	re = MustCompile(`^a\$$`)
	if !re.MatchString("a$") {
		t.Fatal("escaped dollar semantics wrong")
	}
}

func TestCompileErrors(t *testing.T) {
	// A letter or digit escape (\d, octal \0, …) is outside the subset:
	// the engine then matches with the stdlib instead.
	for _, pat := range []string{`(ab`, `ab)`, `[ab`, `*a`, `a\`, `[z-a]`, `a(?`, `\0`, `^\d+$`, `[\w]`, `[a-\z]`} {
		if _, err := Compile(pat); err == nil {
			t.Errorf("Compile(%q) should fail", pat)
		}
	}
}

// TestQuickAgainstStdlib cross-checks the NFA against the stdlib
// regexp package on random patterns from the translator's grammar and
// random path inputs.
func TestQuickAgainstStdlib(t *testing.T) {
	names := []string{"A", "B", "C", "D", "item", "keyword"}
	r := rand.New(rand.NewSource(99))
	randPattern := func() string {
		var b strings.Builder
		b.WriteByte('^')
		if r.Intn(2) == 0 {
			b.WriteString(".*")
		}
		steps := 1 + r.Intn(4)
		for i := 0; i < steps; i++ {
			switch r.Intn(4) {
			case 0:
				b.WriteString("/(.+/)?" + names[r.Intn(len(names))])
			case 1:
				b.WriteString("/[^/]+")
			default:
				b.WriteString("/" + names[r.Intn(len(names))])
			}
		}
		b.WriteByte('$')
		return b.String()
	}
	randPath := func() string {
		var b strings.Builder
		for i, n := 0, 1+r.Intn(6); i < n; i++ {
			b.WriteString("/" + names[r.Intn(len(names))])
		}
		return b.String()
	}
	f := func() bool {
		pat := randPattern()
		mine, err := Compile(pat)
		if err != nil {
			t.Logf("compile %q: %v", pat, err)
			return false
		}
		std := regexp.MustCompile(pat)
		for i := 0; i < 20; i++ {
			s := randPath()
			if mine.MatchString(s) != std.MatchString(s) {
				t.Logf("pattern %q input %q: mine=%v std=%v", pat, s, mine.MatchString(s), std.MatchString(s))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRandomGeneralPatterns stresses the NFA (bypassing fast
// paths) against stdlib on small alphabet patterns.
func TestQuickRandomGeneralPatterns(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var gen func(depth int) string
	gen = func(depth int) string {
		if depth <= 0 {
			return string(rune('a' + r.Intn(3)))
		}
		switch r.Intn(7) {
		case 0:
			return gen(depth-1) + gen(depth-1)
		case 1:
			return "(" + gen(depth-1) + "|" + gen(depth-1) + ")"
		case 2:
			return "(" + gen(depth-1) + ")*"
		case 3:
			return "(" + gen(depth-1) + ")?"
		case 4:
			return "(" + gen(depth-1) + ")+"
		case 5:
			return "."
		default:
			return string(rune('a' + r.Intn(3)))
		}
	}
	f := func() bool {
		pat := gen(3)
		mine, err := Compile(pat)
		if err != nil {
			return false
		}
		std, err := regexp.Compile(pat)
		if err != nil {
			return true // pattern outside common subset; skip
		}
		for i := 0; i < 15; i++ {
			n := r.Intn(8)
			var sb strings.Builder
			for j := 0; j < n; j++ {
				sb.WriteByte(byte('a' + r.Intn(3)))
			}
			s := sb.String()
			if mine.MatchString(s) != std.MatchString(s) {
				t.Logf("pattern %q input %q: mine=%v std=%v", pat, s, mine.MatchString(s), std.MatchString(s))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatchSuffixPattern(b *testing.B) {
	re := MustCompile(`^.*/keyword$`)
	path := "/site/regions/africa/item/description/parlist/listitem/text/keyword"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !re.MatchString(path) {
			b.Fatal("no match")
		}
	}
}

func BenchmarkMatchNFAPattern(b *testing.B) {
	re := MustCompile(`^/site/regions/[^/]+/item/(.+/)?keyword$`)
	path := "/site/regions/africa/item/description/parlist/listitem/text/keyword"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !re.MatchString(path) {
			b.Fatal("no match")
		}
	}
}
