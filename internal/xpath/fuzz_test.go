package xpath

import (
	"testing"
)

// FuzzXPathParse throws arbitrary source at the XPath parser. The
// parser must never panic: malformed input returns an error. When a
// parse succeeds, rendering the AST and re-parsing the rendering must
// succeed and reach a fixpoint (String is a syntactic normal form).
func FuzzXPathParse(f *testing.F) {
	seeds := []string{
		"/A/B/C",
		"//B//F",
		"/A/B[2]/C",
		"/child::A/descendant-or-self::node()/child::F",
		"/A/B[@id='x']/C",
		"/A/B[C/D]/E",
		"/A/*/C | //G",
		"/A/B[position()=2]",
		"/A/B[count(C) > 1]",
		"/A/B[contains(text(), 'v')]",
		"book/title",
		"/A/following-sibling::B",
		"/A/B[1+2*3]",
		"/A/B['quo''te']",
		`/A/B[@id="it's"]`,
		`/A/B[@id='say "hi"']`,
		"",
		"/",
		"//",
		"[",
		"/A[",
		"/A/B[@",
		"4",
		"'lit'",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		expr, err := Parse(src)
		if err != nil {
			return
		}
		r1 := expr.String()
		expr2, err := Parse(r1)
		if err != nil {
			t.Fatalf("rendering of %q does not re-parse: %q: %v", src, r1, err)
		}
		if r2 := expr2.String(); r2 != r1 {
			t.Fatalf("render not a fixpoint for %q: %q -> %q", src, r1, r2)
		}
	})
}
