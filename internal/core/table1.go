package core

import "repro/internal/xpath"

// This file is transcheck's window into the Table 1 construction: the
// derivation functions stay unexported (translate.go and predicates.go are
// their only production callers), but the static translation validator
// needs to drive them over a synthetic axis/shape matrix in addition
// to observing real translations through Options.PatternTrace.

// DeriveForwardPattern derives the Table 1 regex for a forward
// fragment (child/descendant/descendant-or-self steps).
func DeriveForwardPattern(steps []*xpath.Step, anchored bool, baseName string) (string, error) {
	return forwardRegex(steps, anchored, baseName, nil)
}

// DeriveBackwardPattern derives the Table 1 regex for a backward
// fragment (parent/ancestor/ancestor-or-self steps) constraining the
// previous prominent element's path.
func DeriveBackwardPattern(steps []*xpath.Step, contextName string) (string, error) {
	return backwardRegex(steps, contextName, nil)
}

// DeriveForwardSuffixPattern derives the fragment-boundary suffix
// regex for a forward fragment.
func DeriveForwardSuffixPattern(steps []*xpath.Step, prevNamePat string) (string, error) {
	return forwardSuffixRegex(steps, prevNamePat, nil)
}

// DeriveBackwardSuffixPattern derives the fragment-boundary suffix
// regex for a backward fragment.
func DeriveBackwardSuffixPattern(steps []*xpath.Step, contextName string) (string, error) {
	return backwardSuffixRegex(steps, contextName, nil)
}

// QuoteName exposes regexQuote so transcheck can build boundary name
// patterns exactly the way the translator does.
func QuoteName(name string) string { return regexQuote(name) }
