package pathre

import (
	"strings"
	"testing"
)

// corpusPatterns mirrors the shapes the translators emit for the
// paths relation (DESIGN.md section 6): anchored absolute paths,
// descendant closures, ancestor prefixes, alternations, and the
// segment-wise forms the reference automaton uses.
var corpusPatterns = []string{
	`^/(.+/)?keyword$`,
	`^.*/listitem/(.+/)?keyword$`,
	`^/site/people/person$`,
	`^([^/]+/)*mail$`,
	`^/(.+/)?keyword/(.+/)?bold$`,
	`^/site(/.+)?$`,
	`^.*/(keyword|bold|emph)$`,
	`^/(a|b)+(/c)?$`,
	`^/a/b$`,
	`^.*text$`,
	`(/[^/]+)+`,
	`^/dblp/(article|inproceedings)/author$`,
}

var dfaInputs = []string{
	"",
	"/",
	"//",
	"/keyword",
	"/a/keyword",
	"/a/b/keyword",
	"keyword",
	"/listitem/keyword",
	"/x/listitem/y/keyword",
	"/x/listitem/keyword/bold",
	"/site",
	"/site/people/person",
	"/site/people/person/name",
	"mail",
	"a/mail",
	"/a/b/c/mail",
	"/a/b",
	"/a/b/c",
	"/b/c",
	"sometext",
	"/dblp/article/author",
	"/dblp/phdthesis/author",
	"///a",
	"/keyword/",
	strings.Repeat("/seg", 64) + "/keyword",
}

func TestDFAMatchesNFA(t *testing.T) {
	for _, pat := range corpusPatterns {
		re, err := Compile(pat)
		if err != nil {
			t.Fatalf("Compile(%q): %v", pat, err)
		}
		d, err := CompileDFA(re)
		if err != nil {
			t.Fatalf("CompileDFA(%q): %v", pat, err)
		}
		if d.Pattern() != pat {
			t.Fatalf("Pattern() = %q, want %q", d.Pattern(), pat)
		}
		for _, in := range dfaInputs {
			want := re.match(in) // the NFA simulation, bypassing fast paths
			if got := d.MatchString(in); got != want {
				t.Errorf("pattern %q input %q: DFA=%v NFA=%v", pat, in, got, want)
			}
		}
	}
}

func TestVerifyDFACorpus(t *testing.T) {
	for _, pat := range corpusPatterns {
		re := MustCompile(pat)
		d, err := CompileDFA(re)
		if err != nil {
			t.Fatalf("CompileDFA(%q): %v", pat, err)
		}
		if err := VerifyDFA(re, d); err != nil {
			t.Errorf("VerifyDFA(%q): %v", pat, err)
		}
		if d.States() < 2 && d.start != 0 {
			t.Errorf("pattern %q: %d states with non-sink start", pat, d.States())
		}
	}
}

// TestVerifyDFACatchesCorruption checks the proof has teeth: flipping
// an accept bit or redirecting a transition must be detected.
func TestVerifyDFACatchesCorruption(t *testing.T) {
	re := MustCompile(`^/(.+/)?keyword$`)
	d, err := CompileDFA(re)
	if err != nil {
		t.Fatal(err)
	}
	for st := 1; st < d.States(); st++ {
		d.accept[st] = !d.accept[st]
		if err := VerifyDFA(re, d); err == nil {
			t.Errorf("flipped accept[%d] not detected", st)
		}
		d.accept[st] = !d.accept[st]
	}
	if len(d.trans) > d.nclass { // skip the sink's row
		i := d.nclass // first non-sink transition
		orig := d.trans[i]
		d.trans[i] = (orig + 1) % int32(d.States())
		if d.trans[i] != orig {
			if err := VerifyDFA(re, d); err == nil {
				t.Errorf("redirected trans[%d] not detected", i)
			}
			d.trans[i] = orig
		}
	}
}

func TestDFAStateBound(t *testing.T) {
	// Subset construction on (a|b|...)*x...x-style patterns is
	// exponential; the compiler must refuse, not hang or truncate.
	pat := "^(a|b)*a" + strings.Repeat("(a|b)", 16) + "$"
	re, err := Compile(pat)
	if err != nil {
		t.Skipf("Compile(%q): %v", pat, err)
	}
	if _, err := CompileDFA(re); err == nil {
		t.Skip("pattern determinized within bounds on this build")
	}
}

func TestHasLiteralPath(t *testing.T) {
	cases := []struct {
		pat  string
		want bool
	}{
		{`^/site/people$`, true},
		{`^/site/.*name$`, true},
		{`^/(.+/)?keyword$`, false},
		{`keyword`, false},
	}
	for _, c := range cases {
		if got := MustCompile(c.pat).HasLiteralPath(); got != c.want {
			t.Errorf("HasLiteralPath(%q) = %v, want %v", c.pat, got, c.want)
		}
	}
}

// FuzzPathDFA fuzzes the differential property the engine relies on:
// whenever a pattern compiles under both Compile and CompileDFA, the
// DFA's verdict equals the NFA's on every input. Small automata also
// go through the full VerifyDFA product proof.
func FuzzPathDFA(f *testing.F) {
	for _, pat := range corpusPatterns {
		f.Add(pat, "/a/listitem/keyword")
		f.Add(pat, "")
	}
	f.Add(`^/a(/b)?$`, "/a/b")
	f.Add(`^[^/]+$`, "ab")
	f.Fuzz(func(t *testing.T, pat, input string) {
		if len(pat) > 64 || len(input) > 256 {
			return
		}
		re, err := Compile(pat)
		if err != nil {
			return
		}
		d, err := CompileDFA(re)
		if err != nil {
			return // state bound exceeded: the engine falls back to the NFA
		}
		if got, want := d.MatchString(input), re.match(input); got != want {
			t.Fatalf("pattern %q input %q: DFA=%v NFA=%v", pat, input, got, want)
		}
		if d.States() <= 64 {
			if err := VerifyDFA(re, d); err != nil {
				t.Fatalf("VerifyDFA(%q): %v", pat, err)
			}
		}
	})
}
