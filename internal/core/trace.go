package core

import (
	"repro/internal/schema"
	"repro/internal/xpath"
)

// PatternTrace records one Table 1 regex construction as it happens:
// the inputs (fragment steps, anchoring, boundary name pattern) and
// the pattern the translator derived from them. transcheck observes
// it (Options.PatternTrace) to verify every emitted pattern against a
// reference automaton built directly from the axis semantics — the
// trace fires at construction time, before path-filter omission
// (Section 4.5) can discard the pattern, so statically omitted filters
// are still checked.
type PatternTrace struct {
	// Kind is the constructing rule: "forward", "backward",
	// "forward-suffix" or "backward-suffix".
	Kind string
	// Steps are the fragment's normalized steps (shared, read-only).
	Steps []*xpath.Step
	// Anchored is the forward rule's root anchoring flag.
	Anchored bool
	// Base is the boundary name pattern: forward's baseName,
	// backward's contextName, the suffix rules' prev/context name.
	Base string
	// Pattern is the derived Table 1 regex.
	Pattern string
}

// tracePattern reports one construction to the translator's observer
// (Options.PatternTrace; nil means nobody is watching).
func tracePattern(observe func(PatternTrace), kind string, steps []*xpath.Step, anchored bool, base, pattern string) {
	if observe != nil {
		observe(PatternTrace{Kind: kind, Steps: steps, Anchored: anchored, Base: base, Pattern: pattern})
	}
}

// OmissionTrace records one Section 4.5 path-filter decision as the
// translator makes it: the node whose filter was considered, the
// pattern, and the decision with the evidence (Mark, matched path
// counts) that justified it. plancheck observes it
// (Options.OmissionTrace) and re-derives every decision independently,
// failing when the evidence does not support the decision. It fires
// only when the PathFilterOmission option is on — with the
// optimization off no filter is ever omitted, so there is nothing to
// audit.
type OmissionTrace struct {
	// Node is the schema node whose path filter was considered
	// (shared, read-only).
	Node *schema.Node
	// Pattern is the path regex the filter would test.
	Pattern string
	// Decision is the static outcome the translator applied.
	Decision schema.OmissionDecision
	// Evidence is the justification JustifyOmission derived.
	Evidence schema.OmissionEvidence
}
