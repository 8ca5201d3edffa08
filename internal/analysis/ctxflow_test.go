package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.CtxFlow, "ctxflow/internal/engine", "ctxflow/ok")
}

// The real engine and xrel must stay clean: xrel.Query once called
// context.Background() (fixed to pass nil, preserving the engine's
// nil-context fast path), and this pin keeps it fixed.
func TestCtxFlowClean(t *testing.T) {
	expectClean(t, analysis.CtxFlow, "repro/internal/engine", "repro/xrel")
}
