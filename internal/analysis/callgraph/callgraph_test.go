package callgraph_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

var update = flag.Bool("update", false, "rewrite the golden call-graph dumps")

func loadGraph(t *testing.T, importPath string) *callgraph.Graph {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.Load(importPath)
	if err != nil {
		t.Fatalf("load %s: %v", importPath, err)
	}
	return callgraph.Build(pkg.Path, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
}

func fixtureGraph(t *testing.T) *callgraph.Graph {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dir := filepath.Join("testdata", "src", "cgtest")
	pkg, err := loader.LoadDir(dir, "cgtest")
	if err != nil {
		t.Fatalf("load cgtest: %v", err)
	}
	return callgraph.Build(pkg.Path, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("update %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (create with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s: dump differs from golden (re-run with -update if the change is intended)\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

// TestFixtureDump pins every edge kind's golden form on the synthetic
// fixture package.
func TestFixtureDump(t *testing.T) {
	checkGolden(t, "cgtest.golden", fixtureGraph(t).Dump())
}

// TestGoldenEngineDumps pins the reachable subgraphs of the commit
// protocol's three anchor functions in the real engine: the one commit
// function every mutation goes through, the checkpoint writer, and the
// morsel executor. The commit function's subgraph must hold the
// engine's only call of (*wal.Log).Commit.
func TestGoldenEngineDumps(t *testing.T) {
	g := loadGraph(t, "repro/internal/engine")
	var logCommits []string
	for _, n := range g.Nodes {
		for _, x := range n.Extern {
			if x.Callee.FullName() == "(*repro/internal/wal.Log).Commit" {
				logCommits = append(logCommits, n.Name)
			}
		}
	}
	if len(logCommits) != 1 || callgraph.PathTo([]*callgraph.Node{g.Named("(*DB).commit")}, g.Named(logCommits[0]), callgraph.Static) == nil {
		t.Errorf("(*wal.Log).Commit is called from %v, want exactly one caller, reachable from (*DB).commit", logCommits)
	}
	cases := []struct{ file, fn string }{
		{"engine_commit.golden", "(*DB).commit"},
		{"engine_writecheckpoint.golden", "writeCheckpoint"},
		{"engine_collectmorsels.golden", "(*execCtx).collectMorsels"},
	}
	for _, c := range cases {
		n := g.Named(c.fn)
		if n == nil {
			t.Fatalf("engine has no function %s", c.fn)
		}
		checkGolden(t, c.file, g.DumpFrom(n))
	}
}

// TestPathTo checks the witness builder used in analyzer diagnostics.
func TestPathTo(t *testing.T) {
	g := fixtureGraph(t)
	run, helper := g.Named("run"), g.Named("helper")
	if run == nil || helper == nil {
		t.Fatal("fixture nodes missing")
	}
	path := callgraph.PathTo([]*callgraph.Node{run}, helper, callgraph.Static)
	if len(path) != 2 || path[0] != "run" || path[1] != "helper" {
		t.Errorf("PathTo(run, helper) = %v, want [run helper]", path)
	}
	if p := callgraph.PathTo([]*callgraph.Node{helper}, run, callgraph.Static); p != nil {
		t.Errorf("PathTo(helper, run) = %v, want nil (no reverse path)", p)
	}
}

// TestFreshReturns checks the constructor summary: leaf constructors,
// fixpoint chains, and parameter-returning functions.
func TestFreshReturns(t *testing.T) {
	g := fixtureGraph(t)
	fresh := g.FreshReturns(nil)
	byName := map[string]bool{}
	for n, v := range fresh {
		byName[n.Name] = v
	}
	for _, want := range []string{"newT", "wrap"} {
		if !byName[want] {
			t.Errorf("%s not summarized fresh", want)
		}
	}
	for _, notFresh := range []string{"identity", "run", "helper"} {
		if byName[notFresh] {
			t.Errorf("%s wrongly summarized fresh", notFresh)
		}
	}
}

// TestInterfaceEdges asserts dynamic dispatch fans out to every
// implementation, without relying on the golden text.
func TestInterfaceEdges(t *testing.T) {
	g := fixtureGraph(t)
	call := g.Named("call")
	if call == nil {
		t.Fatal("no node call")
	}
	var targets []string
	for _, e := range call.Out {
		if e.Kind == callgraph.Interface {
			targets = append(targets, e.Callee.Name)
		}
	}
	joined := strings.Join(targets, " ")
	for _, want := range []string{"(A).Do", "(*B).Do"} {
		if !strings.Contains(joined, want) {
			t.Errorf("interface dispatch misses %s (got %v)", want, targets)
		}
	}
}
