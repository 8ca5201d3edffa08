// Package core implements the paper's contribution: PPF-based
// XPath-to-SQL translation (Section 4).
//
// An XPath expression's backbone is split into Primitive Path
// Fragments — maximal forward simple paths, backward simple paths, or
// single horizontal-axis steps (Section 4.1). Each forward or
// backward PPF is evaluated holistically by filtering root-to-node
// path strings against a regular expression (Table 1); consecutive
// PPFs are combined with Dewey-encoded structural joins (Table 2) or
// foreign-key joins for single child/parent steps. Predicates become
// EXISTS subselects, except backward-simple-path predicates, which
// fold into additional path regexes (Table 5-2). SQL splitting
// (Section 4.4) and redundant-path-filter omission (Section 4.5) are
// implemented as described.
package core

import (
	"fmt"
	"strings"

	"repro/internal/xpath"
)

// ppfKind classifies a fragment.
type ppfKind uint8

const (
	ppfForward ppfKind = iota
	ppfBackward
	ppfHorizontal
)

// ppf is one Primitive Path Fragment. Its prominent step is the last
// step; predicates can only be attached there (a predicate on an
// intermediate step closes the fragment).
type ppf struct {
	kind  ppfKind
	steps []*xpath.Step
}

func (p *ppf) prominent() *xpath.Step { return p.steps[len(p.steps)-1] }

// splitPPFs splits a backbone step list into PPFs. It also
// pre-processes the step list: '//' step pairs
// (descendant-or-self::node() followed by a named step) collapse into
// one descendant-axis step, and self::node() steps ('.') disappear.
// Terminal attribute and text() steps are returned separately — they
// restrict the prominent relation rather than forming a fragment.
func splitPPFs(steps []*xpath.Step) (frags []*ppf, terminal *xpath.Step, err error) {
	collapsed, terminal, err := normalizeSteps(steps)
	if err != nil {
		return nil, nil, err
	}
	var cur *ppf
	close := func() {
		if cur != nil {
			frags = append(frags, cur)
			cur = nil
		}
	}
	for _, s := range collapsed {
		switch {
		case s.Axis.Horizontal():
			close()
			frags = append(frags, &ppf{kind: ppfHorizontal, steps: []*xpath.Step{s}})
		case s.Axis.Forward():
			if cur == nil || cur.kind != ppfForward {
				close()
				cur = &ppf{kind: ppfForward}
			}
			cur.steps = append(cur.steps, s)
		case s.Axis.Backward():
			if cur == nil || cur.kind != ppfBackward {
				close()
				cur = &ppf{kind: ppfBackward}
			}
			cur.steps = append(cur.steps, s)
		default:
			return nil, nil, fmt.Errorf("core: unsupported axis %s in backbone", s.Axis)
		}
		// A predicate makes this the fragment's prominent (last) step.
		if len(s.Predicates) > 0 {
			close()
		}
		// An ancestor step closes a backward fragment: chains of the
		// form parent*·ancestor translate into one exact structural
		// join, while steps after an ancestor would lose their distance
		// and alignment constraints (see structuralJoin).
		if s.Axis == xpath.Ancestor || s.Axis == xpath.AncestorOrSelf {
			close()
		}
	}
	close()
	return frags, terminal, nil
}

// positionSensitive reports whether a predicate's truth depends on
// the context position (bare numbers, position(), last()). XPath
// applies predicates sequentially, so such a predicate after another
// predicate would need the *filtered* position — which the
// conjunctive SQL translation cannot express.
func positionSensitive(e xpath.Expr) bool {
	switch x := e.(type) {
	case *xpath.Number:
		return true
	case *xpath.Call:
		switch x.Name {
		case "position", "last":
			return true
		case "not":
			return positionSensitive(x.Args[0])
		}
	case *xpath.Binary:
		return positionSensitive(x.L) || positionSensitive(x.R)
	}
	return false
}

// checkPredicateOrder rejects position-sensitive predicates that are
// not the first predicate of their step.
func checkPredicateOrder(s *xpath.Step) error {
	for i, pred := range s.Predicates {
		if i > 0 && positionSensitive(pred) {
			return fmt.Errorf("core: a positional predicate after another predicate needs sequential semantics (step %s)", s)
		}
	}
	return nil
}

// allChild reports whether every step of a fragment is a child step
// (the fragment spans an exact number of levels).
func allChild(f *ppf) bool {
	for _, s := range f.steps {
		if s.Axis != xpath.Child {
			return false
		}
	}
	return true
}

// allParent reports whether every step is a parent step.
func allParent(f *ppf) bool {
	for _, s := range f.steps {
		if s.Axis != xpath.Parent {
			return false
		}
	}
	return true
}

// normalizeSteps delegates to xpath.NormalizeSteps.
func normalizeSteps(steps []*xpath.Step) ([]*xpath.Step, *xpath.Step, error) {
	return xpath.NormalizeSteps(steps)
}

// --- regular expression construction (Table 1) ---

// alt is one alternative of a path pattern under construction: the
// name pattern of its deepest (head) element plus everything after it
// up the path for backward patterns, or everything before it for
// forward patterns. Keeping the boundary name separate lets
// 'or-self' steps constrain it.
type alt struct {
	pre  string // pattern before the head name
	head string // name pattern of the boundary element
	post string // pattern after the head name
}

// namePat returns the regex fragment matching one path segment for a
// node test.
func namePat(s *xpath.Step) string {
	if s.Wildcard() || s.Test == xpath.AnyKindTest {
		return "[^/]+"
	}
	return regexQuote(s.Name)
}

// regexQuote escapes regex metacharacters in an element name.
func regexQuote(name string) string {
	var b strings.Builder
	for _, r := range name {
		if strings.ContainsRune(`\.+*?()|[]{}^$`, r) {
			b.WriteByte('\\')
		}
		b.WriteRune(r)
	}
	return b.String()
}

// intersectNames intersects two name patterns (for or-self steps):
// two literals must be equal; a wildcard adopts the other side.
// Returns the combined pattern and whether the intersection is
// non-empty.
func intersectNames(a, b string) (string, bool) {
	const wild = "[^/]+"
	switch {
	case a == wild:
		return b, true
	case b == wild:
		return a, true
	case a == b:
		return a, true
	default:
		return "", false
	}
}

// forwardRegex builds the pattern for a forward path per Table 1.
// The step list must be normalized. anchored selects '^/...' (path
// starts at the document root) versus '^.*/...' (unknown prefix);
// baseName optionally pins the segment just before the fragment (the
// previous PPF's prominent name pattern), strengthening unanchored
// patterns.
func forwardRegex(steps []*xpath.Step, anchored bool, baseName string, observe func(PatternTrace)) (string, error) {
	alts := []alt{{}}
	if !anchored {
		if baseName != "" {
			alts = []alt{{pre: "^.*/", head: baseName, post: ""}}
		} else {
			alts = []alt{{pre: "^.*", head: "", post: ""}}
		}
	} else {
		alts = []alt{{pre: "^", head: "", post: ""}}
	}
	for _, s := range steps {
		np := namePat(s)
		var next []alt
		for _, a := range alts {
			switch s.Axis {
			case xpath.Child:
				next = append(next, alt{pre: a.pre + a.head + a.post + "/", head: np, post: ""})
			case xpath.Descendant:
				next = append(next, alt{pre: a.pre + a.head + a.post + "/(.+/)?", head: np, post: ""})
			case xpath.DescendantOrSelf:
				// Descendant case.
				next = append(next, alt{pre: a.pre + a.head + a.post + "/(.+/)?", head: np, post: ""})
				// Self case: only when a head exists to constrain.
				if a.head != "" {
					if merged, ok := intersectNames(a.head, np); ok {
						next = append(next, alt{pre: a.pre, head: merged, post: a.post})
					}
				}
			default:
				return "", fmt.Errorf("core: axis %s inside a forward fragment", s.Axis)
			}
		}
		alts = dedupeAlts(next)
		if len(alts) == 0 {
			return "", fmt.Errorf("core: forward fragment can never match")
		}
	}
	pat := assemble(alts)
	tracePattern(observe, "forward", steps, anchored, baseName, pat)
	return pat, nil
}

// backwardRegex builds the pattern constraining the root-to-node path
// of the *previous* fragment's prominent element, per Table 1 row 4
// and Table 3(3). contextName is that element's name pattern; the
// backward steps walk up from it.
func backwardRegex(steps []*xpath.Step, contextName string, observe func(PatternTrace)) (string, error) {
	alts := []alt{{pre: "", head: contextName, post: "$"}}
	for _, s := range steps {
		np := namePat(s)
		var next []alt
		for _, a := range alts {
			switch s.Axis {
			case xpath.Parent:
				next = append(next, alt{pre: "", head: np, post: "/" + a.pre + a.head + a.post})
			case xpath.Ancestor:
				next = append(next, alt{pre: "", head: np, post: "/(.+/)?" + a.pre + a.head + a.post})
			case xpath.AncestorOrSelf:
				next = append(next, alt{pre: "", head: np, post: "/(.+/)?" + a.pre + a.head + a.post})
				if merged, ok := intersectNames(a.head, np); ok {
					next = append(next, alt{pre: a.pre, head: merged, post: a.post})
				}
			default:
				return "", fmt.Errorf("core: axis %s inside a backward fragment", s.Axis)
			}
		}
		alts = dedupeAlts(next)
		if len(alts) == 0 {
			return "", fmt.Errorf("core: backward fragment can never match")
		}
	}
	for i := range alts {
		alts[i].pre = "^.*/" + alts[i].pre
	}
	pat := assemble(alts)
	tracePattern(observe, "backward", steps, false, contextName, pat)
	return pat, nil
}

// forwardSuffixRegex builds the anchored pattern that the part of the
// current element's root path *below the previous prominent element*
// must match — the exact fragment-boundary check used when the
// deeper relation is recursive (I-P) and the full-path regex could
// align at the wrong depth. An empty suffix (the context itself) is
// admitted when or-self steps permit it; prevNamePat constrains that
// case.
func forwardSuffixRegex(steps []*xpath.Step, prevNamePat string, observe func(PatternTrace)) (string, error) {
	alts := []alt{{pre: "^", head: "", post: ""}}
	for _, s := range steps {
		np := namePat(s)
		var next []alt
		for _, a := range alts {
			boundary := a.head == "" // zero progress so far
			switch s.Axis {
			case xpath.Child:
				next = append(next, alt{pre: a.pre + a.head + a.post + "/", head: np})
			case xpath.Descendant:
				next = append(next, alt{pre: a.pre + a.head + a.post + "/(.+/)?", head: np})
			case xpath.DescendantOrSelf:
				next = append(next, alt{pre: a.pre + a.head + a.post + "/(.+/)?", head: np})
				if boundary {
					if _, ok := intersectNames(prevNamePat, np); ok {
						next = append(next, a)
					}
				} else if merged, ok := intersectNames(a.head, np); ok {
					next = append(next, alt{pre: a.pre, head: merged, post: a.post})
				}
			default:
				return "", fmt.Errorf("core: axis %s inside a forward fragment", s.Axis)
			}
		}
		alts = dedupeAlts(next)
		if len(alts) == 0 {
			return "", fmt.Errorf("core: forward fragment can never match")
		}
	}
	pat := assemble(alts)
	tracePattern(observe, "forward-suffix", steps, false, prevNamePat, pat)
	return pat, nil
}

// backwardSuffixRegex builds the anchored pattern that the part of
// the *previous* prominent element's root path below the current
// (ancestor) element must match. contextName is the previous
// element's name pattern.
func backwardSuffixRegex(steps []*xpath.Step, contextName string, observe func(PatternTrace)) (string, error) {
	alts := []alt{{pre: "", head: contextName, post: "$"}}
	for _, s := range steps {
		np := namePat(s)
		var next []alt
		for _, a := range alts {
			switch s.Axis {
			case xpath.Parent:
				next = append(next, alt{pre: "", head: np, post: "/" + a.pre + a.head + a.post})
			case xpath.Ancestor:
				next = append(next, alt{pre: "", head: np, post: "/(.+/)?" + a.pre + a.head + a.post})
			case xpath.AncestorOrSelf:
				next = append(next, alt{pre: "", head: np, post: "/(.+/)?" + a.pre + a.head + a.post})
				if merged, ok := intersectNames(a.head, np); ok {
					next = append(next, alt{pre: a.pre, head: merged, post: a.post})
				}
			default:
				return "", fmt.Errorf("core: axis %s inside a backward fragment", s.Axis)
			}
		}
		alts = dedupeAlts(next)
		if len(alts) == 0 {
			return "", fmt.Errorf("core: backward fragment can never match")
		}
	}
	// The suffix starts just below the topmost (current) element: drop
	// its own segment, keeping post (which already carries '$').
	suffix := make([]alt, 0, len(alts))
	for _, a := range alts {
		p := a.post
		if p == "$" {
			// Pure or-self: the current element IS the context; an empty
			// suffix.
			suffix = append(suffix, alt{pre: "^", head: "", post: "$"})
			continue
		}
		suffix = append(suffix, alt{pre: "^", head: "", post: p})
	}
	pat := assemble(dedupeAlts(suffix))
	tracePattern(observe, "backward-suffix", steps, false, contextName, pat)
	return pat, nil
}

func dedupeAlts(alts []alt) []alt {
	seen := map[alt]bool{}
	out := alts[:0]
	for _, a := range alts {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// assemble renders an alternative set as one pattern. Forward
// patterns get their trailing '$' here; backward alternatives carry
// it in post.
func assemble(alts []alt) string {
	parts := make([]string, len(alts))
	for i, a := range alts {
		p := a.pre + a.head + a.post
		if !strings.HasSuffix(p, "$") {
			p += "$"
		}
		parts[i] = p
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return "(" + strings.Join(parts, ")|(") + ")"
}
