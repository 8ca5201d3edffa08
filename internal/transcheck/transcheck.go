package transcheck

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dblp"
	"repro/internal/pathre"
	"repro/internal/xmark"
	"repro/internal/xpath"
)

// A Finding is one pattern the translator got wrong (or that the
// checker could not decide).
type Finding struct {
	// Source identifies where the pattern came from: "matrix" plus the
	// fragment expression, or the corpus query ID.
	Source string
	// Kind is the Table 1 rule: forward, backward, forward-suffix,
	// backward-suffix.
	Kind string
	// Pattern is the regex the translator derived.
	Pattern string
	// Witness, when non-empty, is a shortest in-domain path string
	// accepted by exactly one of translator pattern and reference.
	Witness string
	// Err holds checker-side failures (unparseable pattern, state-bound
	// blowup); such findings demand attention just like mismatches.
	Err string
}

func (f Finding) String() string {
	if f.Err != "" {
		return fmt.Sprintf("%s [%s] %q: %s", f.Source, f.Kind, f.Pattern, f.Err)
	}
	return fmt.Sprintf("%s [%s] %q: disagrees with reference automaton on %q", f.Source, f.Kind, f.Pattern, f.Witness)
}

// Stats summarizes a check run.
type Stats struct {
	Checked int // pattern/reference equivalence checks performed
	Queries int // corpus queries translated (corpus runs only)
}

// checkOne verifies one translator pattern against the reference
// automaton for its construction inputs. With verifyDFA set it
// additionally proves the dense DFA the engine compiles for the
// pattern (its batched REGEXP_LIKE path) equivalent to the NFA; the
// corpus sweep turns this on for every traced pattern, while the
// synthetic matrix leaves it off — its tens of thousands of patterns
// would spend minutes in the 256-byte product proof, and arbitrary
// shapes are already covered by pathre's FuzzPathDFA.
func checkOne(source, kind string, steps []*xpath.Step, anchored bool, base, pattern string, verifyDFA bool) *Finding {
	var (
		ref    *pathre.Regexp
		domain *pathre.Regexp
		err    error
	)
	switch kind {
	case "forward":
		ref, err = referenceForward(steps, anchored, base)
		domain = pathDomain()
	case "backward":
		ref, err = referenceBackward(steps, base)
		domain = pathDomain()
	case "forward-suffix":
		ref, err = referenceForwardSuffix(steps, base)
		domain = suffixDomain()
	case "backward-suffix":
		ref, err = referenceBackwardSuffix(steps, base)
		domain = suffixDomain()
	default:
		err = fmt.Errorf("transcheck: unknown pattern kind %q", kind)
	}
	if err != nil {
		return &Finding{Source: source, Kind: kind, Pattern: pattern, Err: err.Error()}
	}
	got, err := pathre.Compile(pattern)
	if err != nil {
		return &Finding{Source: source, Kind: kind, Pattern: pattern, Err: "translator pattern does not compile: " + err.Error()}
	}
	eq, witness, err := pathre.EquivalentWithin(domain, got, ref)
	if err != nil {
		return &Finding{Source: source, Kind: kind, Pattern: pattern, Err: err.Error()}
	}
	if !eq {
		return &Finding{Source: source, Kind: kind, Pattern: pattern, Witness: witness}
	}
	// A state-bound overflow in CompileDFA is the engine's sanctioned
	// NFA fallback, not a finding.
	if verifyDFA {
		if d, derr := pathre.CompileDFA(got); derr == nil {
			if verr := pathre.VerifyDFA(got, d); verr != nil {
				return &Finding{Source: source, Kind: kind, Pattern: pattern, Err: "DFA disagrees with NFA: " + verr.Error()}
			}
		}
	}
	return nil
}

// CheckCorpus translates every fig3 (dblp) and XPathMark query under
// both the schema-aware and the Edge mapping, captures every Table 1
// pattern constructed along the way via core.Options.PatternTrace, and
// checks each distinct (kind, inputs, pattern) tuple against its
// reference automaton. Queries the translator rejects (unsupported
// features) are skipped: no pattern was emitted, so there is nothing
// to validate.
func CheckCorpus() ([]Finding, Stats, error) {
	type key struct {
		kind     string
		sig      string
		anchored bool
		base     string
		pattern  string
	}
	traced := map[key]core.PatternTrace{}
	sources := map[key]string{}
	var current string
	opts := core.DefaultOptions()
	opts.PatternTrace = func(tr core.PatternTrace) {
		k := key{kind: tr.Kind, sig: stepsSig(tr.Steps), anchored: tr.Anchored, base: tr.Base, pattern: tr.Pattern}
		if _, ok := traced[k]; !ok {
			traced[k] = tr
			sources[k] = current
		}
	}

	type corpusQuery struct{ id, query string }
	var queries []corpusQuery
	for _, q := range dblp.Queries {
		queries = append(queries, corpusQuery{"fig3/" + q.ID, q.XPath})
	}
	for _, q := range xmark.Queries {
		queries = append(queries, corpusQuery{"xmark/" + q.ID, q.XPath})
	}

	schemaT := core.New(dblp.Schema(), &opts)
	xmarkT := core.New(xmark.Schema(), &opts)
	edgeT := core.NewEdge(&opts)
	var stats Stats
	for _, q := range queries {
		stats.Queries++
		current = q.id
		t := schemaT
		if strings.HasPrefix(q.id, "xmark/") {
			t = xmarkT
		}
		// Errors are expected for unsupported queries; traced patterns
		// from partial translations are still collected and checked.
		_, _ = t.Translate(q.query)
		current = q.id + "/edge"
		_, _ = edgeT.Translate(q.query)
	}

	keys := make([]key, 0, len(traced))
	for k := range traced {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if sources[keys[i]] != sources[keys[j]] {
			return sources[keys[i]] < sources[keys[j]]
		}
		return keys[i].pattern < keys[j].pattern
	})
	var findings []Finding
	for _, k := range keys {
		tr := traced[k]
		stats.Checked++
		if f := checkOne(sources[k], tr.Kind, tr.Steps, tr.Anchored, tr.Base, tr.Pattern, true); f != nil {
			findings = append(findings, *f)
		}
	}
	if stats.Checked == 0 {
		return nil, stats, fmt.Errorf("transcheck: corpus sweep produced no patterns — trace hook broken?")
	}
	return findings, stats, nil
}

// CheckMatrix drives the Table 1 derivations directly over a
// synthetic matrix of axis/name shapes — every forward and backward
// axis sequence up to length 3, crossed with named/wildcard tests and
// every boundary context the translator can present (anchored,
// unanchored with and without a base name, wildcard bases, and a
// metacharacter-bearing element name) — and checks each derived
// pattern against its reference automaton.
func CheckMatrix() ([]Finding, Stats, error) {
	var findings []Finding
	var stats Stats
	check := func(expr, kind string, steps []*xpath.Step, anchored bool, base, pattern string, err error) {
		if err != nil {
			// Unsatisfiable fragments (e.g. or-self over incompatible
			// literal names everywhere) are a legitimate translator
			// outcome, not a finding.
			return
		}
		stats.Checked++
		if f := checkOne("matrix/"+expr, kind, steps, anchored, base, pattern, false); f != nil {
			findings = append(findings, *f)
		}
	}

	fwdAxes := []xpath.Axis{xpath.Child, xpath.Descendant, xpath.DescendantOrSelf}
	bwdAxes := []xpath.Axis{xpath.Parent, xpath.Ancestor, xpath.AncestorOrSelf}
	// Two distinct literals, a metacharacter-bearing name, and the
	// wildcard: enough to exercise intersection hits, misses and
	// quoting.
	names := []string{"a", "b", "a.b", ""}
	bases := []string{"", "[^/]+", core.QuoteName("a"), core.QuoteName("a.b")}
	contexts := []string{"[^/]+", core.QuoteName("a"), core.QuoteName("a.b")}

	for _, shape := range axisShapes(fwdAxes, names, 3) {
		expr := shapeExpr(shape)
		for _, anchored := range []bool{true, false} {
			for _, base := range bases {
				if anchored && base != "" {
					continue // the translator never passes a base when anchored
				}
				pat, err := core.DeriveForwardPattern(shape, anchored, base)
				check(expr, "forward", shape, anchored, base, pat, err)
			}
		}
		for _, prev := range contexts {
			pat, err := core.DeriveForwardSuffixPattern(shape, prev)
			check(expr, "forward-suffix", shape, false, prev, pat, err)
		}
	}
	for _, shape := range axisShapes(bwdAxes, names, 3) {
		expr := shapeExpr(shape)
		for _, ctx := range contexts {
			pat, err := core.DeriveBackwardPattern(shape, ctx)
			check(expr, "backward", shape, false, ctx, pat, err)
			pat, err = core.DeriveBackwardSuffixPattern(shape, ctx)
			check(expr, "backward-suffix", shape, false, ctx, pat, err)
		}
	}
	if stats.Checked == 0 {
		return nil, stats, fmt.Errorf("transcheck: axis matrix produced no checks")
	}
	return findings, stats, nil
}

// axisShapes enumerates every step sequence of length 1..maxLen over
// the given axes, with each step's name drawn from names ("" =
// wildcard).
func axisShapes(axes []xpath.Axis, names []string, maxLen int) [][]*xpath.Step {
	var out [][]*xpath.Step
	var build func(prefix []*xpath.Step)
	build = func(prefix []*xpath.Step) {
		if len(prefix) > 0 {
			out = append(out, append([]*xpath.Step(nil), prefix...))
		}
		if len(prefix) == maxLen {
			return
		}
		for _, ax := range axes {
			for _, name := range names {
				build(append(prefix, &xpath.Step{Axis: ax, Test: xpath.NameTest, Name: name}))
			}
		}
	}
	build(nil)
	return out
}

func shapeExpr(steps []*xpath.Step) string {
	parts := make([]string, len(steps))
	for i, s := range steps {
		name := s.Name
		if name == "" {
			name = "*"
		}
		parts[i] = s.Axis.String() + "::" + name
	}
	return strings.Join(parts, "/")
}

func stepsSig(steps []*xpath.Step) string {
	var sb strings.Builder
	for _, s := range steps {
		fmt.Fprintf(&sb, "%d:%d:%s;", s.Axis, s.Test, s.Name)
	}
	return sb.String()
}
