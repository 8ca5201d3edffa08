// Package transcheck statically validates the translator's Table 1
// path patterns: for every axis/fragment shape it builds a reference
// NFA directly from the axis semantics — segments, separators and
// gaps as automaton combinators, sharing none of Table 1's
// string-assembly code — and checks the pattern the translator
// actually emitted for language equivalence over the path-string
// domain. Two entry points feed it: a synthetic axis/shape matrix
// (CheckMatrix) and a corpus sweep that traces every pattern
// constructed while translating the fig3 and XPathMark query sets
// under both the schema-aware and the Edge mapping (CheckCorpus).
package transcheck

import (
	"fmt"
	"strings"

	"repro/internal/pathre"
	"repro/internal/xpath"
)

// A segPred constrains one path segment: any element name, or one
// specific name.
type segPred struct {
	any  bool
	name string
}

func predOf(s *xpath.Step) segPred {
	if s.Wildcard() || s.Test == xpath.AnyKindTest {
		return segPred{any: true}
	}
	return segPred{name: s.Name}
}

// parseNamePat inverts core's namePat output: the only base patterns
// the translator passes across fragment boundaries are the wildcard
// class and regex-quoted literals.
func parseNamePat(pat string) (segPred, error) {
	if pat == "[^/]+" {
		return segPred{any: true}, nil
	}
	var b strings.Builder
	for i := 0; i < len(pat); i++ {
		c := pat[i]
		if c == '\\' {
			i++
			if i == len(pat) {
				return segPred{}, fmt.Errorf("transcheck: trailing backslash in name pattern %q", pat)
			}
			b.WriteByte(pat[i])
			continue
		}
		if strings.IndexByte(`.+*?()|[]{}^$`, c) >= 0 {
			return segPred{}, fmt.Errorf("transcheck: unexpected metacharacter %q in name pattern %q", c, pat)
		}
		b.WriteByte(c)
	}
	return segPred{name: b.String()}, nil
}

// intersect returns the conjunction of two segment predicates and
// whether it is satisfiable.
func intersect(a, b segPred) (segPred, bool) {
	switch {
	case a.any:
		return b, true
	case b.any:
		return a, true
	case a.name == b.name:
		return a, true
	default:
		return segPred{}, false
	}
}

// atoms of the reference automaton. A branch is a linear sequence of
// atoms; or-self steps fork branches rather than complicating atoms.
type atomKind uint8

const (
	aAnyPrefix atomKind = iota // arbitrary bytes (the '^.*' context prefix)
	aSlash                     // the '/' separator
	aSeg                       // one segment constrained by a predicate
	aGap                       // zero or more whole segments, each '/'-terminated
)

type atom struct {
	kind atomKind
	p    segPred
}

// A branch is one alternative under construction. pending holds the
// predicate of the most recent segment, kept symbolic so an or-self
// step can still refine it; pendingSet distinguishes "no segment yet"
// (the fragment boundary / document root) from a pending wildcard.
type branch struct {
	atoms      []atom
	pending    segPred
	pendingSet bool
}

func (br branch) emitPending() branch {
	if !br.pendingSet {
		return br
	}
	atoms := append(append([]atom(nil), br.atoms...), atom{kind: aSeg, p: br.pending})
	return branch{atoms: atoms}
}

func (br branch) appendAtoms(ks ...atomKind) branch {
	atoms := append([]atom(nil), br.atoms...)
	for _, k := range ks {
		atoms = append(atoms, atom{kind: k})
	}
	return branch{atoms: atoms, pending: br.pending, pendingSet: br.pendingSet}
}

func (br branch) withPending(p segPred) branch {
	return branch{atoms: br.atoms, pending: p, pendingSet: true}
}

// referenceForward builds the reference automaton for a forward
// fragment: each child step appends exactly one '/'-separated segment
// matching its test; each descendant step appends one or more (a gap
// of whole segments then the named one); descendant-or-self forks a
// self alternative that conjoins its test onto the previous segment.
func referenceForward(steps []*xpath.Step, anchored bool, base string) (*pathre.Regexp, error) {
	var init branch
	switch {
	case anchored:
		// The context is the document root: its path is empty and it has
		// no segment an or-self step could constrain.
		init = branch{}
	case base != "":
		bp, err := parseNamePat(base)
		if err != nil {
			return nil, err
		}
		// An unknown ancestor chain, then the previous prominent
		// element's segment.
		init = branch{atoms: []atom{{kind: aAnyPrefix}, {kind: aSlash}}, pending: bp, pendingSet: true}
	default:
		// Entirely unknown context; like the root case it exposes no
		// constrainable segment.
		init = branch{atoms: []atom{{kind: aAnyPrefix}}}
	}
	branches := []branch{init}
	for _, s := range steps {
		p := predOf(s)
		var next []branch
		for _, br := range branches {
			switch s.Axis {
			case xpath.Child:
				next = append(next, br.emitPending().appendAtoms(aSlash).withPending(p))
			case xpath.Descendant:
				next = append(next, br.emitPending().appendAtoms(aSlash, aGap).withPending(p))
			case xpath.DescendantOrSelf:
				next = append(next, br.emitPending().appendAtoms(aSlash, aGap).withPending(p))
				if br.pendingSet {
					if merged, ok := intersect(br.pending, p); ok {
						next = append(next, br.withPending(merged))
					}
				}
			default:
				return nil, fmt.Errorf("transcheck: axis %s in a forward fragment", s.Axis)
			}
		}
		branches = next
	}
	return materialize(branches, "ref-forward")
}

// referenceBackward builds the reference automaton for a backward
// fragment, constraining the path of the element the fragment starts
// from (the previous prominent): walking parent steps inserts exactly
// one segment above it, ancestor steps one segment plus a gap;
// ancestor-or-self forks a self alternative. The topmost element's
// ancestors are unconstrained ('^.*/').
func referenceBackward(steps []*xpath.Step, contextName string) (*pathre.Regexp, error) {
	cp, err := parseNamePat(contextName)
	if err != nil {
		return nil, err
	}
	branches, err := backwardBranches(steps, cp)
	if err != nil {
		return nil, err
	}
	// Materialized form: ^.* '/' topSeg <below-atoms> $ — the below
	// atoms were built bottom-up and already end at the context.
	out := make([]branch, 0, len(branches))
	for _, br := range branches {
		full := branch{atoms: []atom{{kind: aAnyPrefix}, {kind: aSlash}, {kind: aSeg, p: br.pending}}}
		full.atoms = append(full.atoms, br.atoms...)
		out = append(out, full)
	}
	return materialize(out, "ref-backward")
}

// backwardBranches walks a backward fragment bottom-up. In the result,
// pending is the topmost (shallowest) element's predicate and atoms
// are everything below it down to the context segment.
func backwardBranches(steps []*xpath.Step, cp segPred) ([]branch, error) {
	branches := []branch{{pending: cp, pendingSet: true}}
	for _, s := range steps {
		p := predOf(s)
		var next []branch
		for _, br := range branches {
			// Prepending below the new top: '/' [gap] oldTop <old atoms>.
			prepend := func(withGap bool) branch {
				atoms := []atom{{kind: aSlash}}
				if withGap {
					atoms = append(atoms, atom{kind: aGap})
				}
				atoms = append(atoms, atom{kind: aSeg, p: br.pending})
				atoms = append(atoms, br.atoms...)
				return branch{atoms: atoms, pending: p, pendingSet: true}
			}
			switch s.Axis {
			case xpath.Parent:
				next = append(next, prepend(false))
			case xpath.Ancestor:
				next = append(next, prepend(true))
			case xpath.AncestorOrSelf:
				next = append(next, prepend(true))
				if merged, ok := intersect(br.pending, p); ok {
					next = append(next, branch{atoms: br.atoms, pending: merged, pendingSet: true})
				}
			default:
				return nil, fmt.Errorf("transcheck: axis %s in a backward fragment", s.Axis)
			}
		}
		branches = next
	}
	return branches, nil
}

// referenceForwardSuffix builds the reference automaton for the
// fragment-boundary suffix of a forward fragment: the part of the
// result's path strictly below the previous prominent element. The
// suffix is "" when or-self steps allow the result to be the previous
// element itself (admitted only if the tests are compatible with
// prevName).
func referenceForwardSuffix(steps []*xpath.Step, prevName string) (*pathre.Regexp, error) {
	pp, err := parseNamePat(prevName)
	if err != nil {
		return nil, err
	}
	branches := []branch{{}} // boundary: zero segments below the previous element
	for _, s := range steps {
		p := predOf(s)
		var next []branch
		for _, br := range branches {
			switch s.Axis {
			case xpath.Child:
				next = append(next, br.emitPending().appendAtoms(aSlash).withPending(p))
			case xpath.Descendant:
				next = append(next, br.emitPending().appendAtoms(aSlash, aGap).withPending(p))
			case xpath.DescendantOrSelf:
				next = append(next, br.emitPending().appendAtoms(aSlash, aGap).withPending(p))
				if br.pendingSet {
					if merged, ok := intersect(br.pending, p); ok {
						next = append(next, br.withPending(merged))
					}
				} else if _, ok := intersect(pp, p); ok {
					// Still at the boundary: "self" is the previous element,
					// whose name the test must admit; the suffix stays empty.
					next = append(next, br)
				}
			default:
				return nil, fmt.Errorf("transcheck: axis %s in a forward fragment", s.Axis)
			}
		}
		branches = next
	}
	return materialize(branches, "ref-forward-suffix")
}

// referenceBackwardSuffix builds the reference automaton for the
// fragment-boundary suffix of a backward fragment: the previous
// prominent element's path strictly below the ancestor the fragment
// reaches. The topmost segment itself is outside the suffix; a pure
// or-self chain leaves an empty suffix.
func referenceBackwardSuffix(steps []*xpath.Step, contextName string) (*pathre.Regexp, error) {
	cp, err := parseNamePat(contextName)
	if err != nil {
		return nil, err
	}
	branches, err := backwardBranches(steps, cp)
	if err != nil {
		return nil, err
	}
	out := make([]branch, 0, len(branches))
	for _, br := range branches {
		// Drop the topmost segment (its name was constrained by the
		// join partner, and unsatisfiable branches are already gone):
		// the suffix is exactly the atoms below it.
		out = append(out, branch{atoms: br.atoms})
	}
	return materialize(out, "ref-backward-suffix")
}

// materialize compiles branches into one pathre automaton via the
// Builder: anchored on both sides, alternation over branches.
func materialize(branches []branch, label string) (*pathre.Regexp, error) {
	if len(branches) == 0 {
		return nil, fmt.Errorf("transcheck: reference automaton for %s has no satisfiable branch", label)
	}
	b := &pathre.Builder{}
	seg := func(p segPred) pathre.Frag {
		if p.any {
			return b.Plus(b.Class(true, '/'))
		}
		return b.Literal(p.name)
	}
	frags := make([]pathre.Frag, 0, len(branches))
	for _, br := range branches {
		parts := []pathre.Frag{b.Bol()}
		for _, a := range br.atoms {
			switch a.kind {
			case aAnyPrefix:
				parts = append(parts, b.Star(b.AnyByte()))
			case aSlash:
				parts = append(parts, b.Byte('/'))
			case aSeg:
				parts = append(parts, seg(a.p))
			case aGap:
				parts = append(parts, b.Star(b.Seq(b.Plus(b.Class(true, '/')), b.Byte('/'))))
			}
		}
		if br.pendingSet {
			parts = append(parts, seg(br.pending))
		}
		parts = append(parts, b.Eol())
		frags = append(frags, b.Seq(parts...))
	}
	return b.Compile(b.Alt(frags...), label), nil
}

// Domains: full root-to-node paths are '(/seg)+'; fragment-boundary
// suffixes are '(/seg)*' (empty for or-self boundaries).
func pathDomain() *pathre.Regexp {
	b := &pathre.Builder{}
	seg := b.Plus(b.Class(true, '/'))
	return b.Compile(b.Seq(b.Bol(), b.Plus(b.Seq(b.Byte('/'), seg)), b.Eol()), "path-domain")
}

func suffixDomain() *pathre.Regexp {
	b := &pathre.Builder{}
	seg := b.Plus(b.Class(true, '/'))
	return b.Compile(b.Seq(b.Bol(), b.Star(b.Seq(b.Byte('/'), seg)), b.Eol()), "suffix-domain")
}
