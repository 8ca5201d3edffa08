package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSelectAnalyzers(t *testing.T) {
	all, err := selectAnalyzers("")
	if err != nil || len(all) != 17 {
		t.Fatalf("default selection: got %d analyzers, err %v; want 17, nil", len(all), err)
	}
	some, err := selectAnalyzers("rawsql, errdrop")
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 2 || some[0].Name != "rawsql" || some[1].Name != "errdrop" {
		t.Fatalf("subset selection wrong: %+v", some)
	}
	if _, err := selectAnalyzers("nosuch"); err == nil {
		t.Fatal("unknown analyzer name must error")
	}
	for _, name := range []string{"ctxflow", "lockscope", "sqltaint", "hotalloc", "goleak", "statflow", "snapfreeze", "guardedby", "walorder", "xvetignore"} {
		if _, err := selectAnalyzers(name); err != nil {
			t.Errorf("analyzer %s not registered: %v", name, err)
		}
	}
}

// writeTree materializes a file tree (paths relative to root).
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

const tmpGoMod = "module xvettmp\n\ngo 1.22\n"

// Exit status must distinguish findings (1) from load failures and
// internal errors (2), with 0 for a clean tree.
func TestExitCodes(t *testing.T) {
	var out, errw bytes.Buffer

	clean := t.TempDir()
	writeTree(t, clean, map[string]string{
		"go.mod": tmpGoMod,
		"a/a.go": "package a\n\nfunc A() int { return 1 }\n",
		"b/b.go": "package b\n\nfunc B() int { return 2 }\n",
	})
	if code := run(clean, []string{"-novet", "./..."}, &out, &errw); code != exitClean {
		t.Fatalf("clean tree: exit %d, want %d\nstdout: %s\nstderr: %s", code, exitClean, out.String(), errw.String())
	}

	// A goroutine leak inside a package whose import path ends in
	// internal/engine is a finding: exit 1.
	leaky := t.TempDir()
	writeTree(t, leaky, map[string]string{
		"go.mod":               tmpGoMod,
		"internal/engine/e.go": "package engine\n\nfunc spawn() {\n\tgo func() {\n\t\tfor {\n\t\t}\n\t}()\n}\n",
	})
	out.Reset()
	errw.Reset()
	if code := run(leaky, []string{"-novet", "./..."}, &out, &errw); code != exitFindings {
		t.Fatalf("leaky tree: exit %d, want %d\nstderr: %s", code, exitFindings, errw.String())
	}
	if !strings.Contains(out.String(), "goleak") {
		t.Fatalf("leaky tree output missing goleak diagnostic:\n%s", out.String())
	}

	// A type error makes the package unloadable: exit 2.
	broken := t.TempDir()
	writeTree(t, broken, map[string]string{
		"go.mod": tmpGoMod,
		"a/a.go": "package a\n\nvar x int = \"not an int\"\n",
	})
	out.Reset()
	errw.Reset()
	if code := run(broken, []string{"-novet", "./..."}, &out, &errw); code != exitInternal {
		t.Fatalf("broken tree: exit %d, want %d\nstderr: %s", code, exitInternal, errw.String())
	}

	// An unknown flag or analyzer name is an internal error, not a
	// finding. -nocache is unknown: xvet keeps no result cache.
	out.Reset()
	errw.Reset()
	if code := run(clean, []string{"-novet", "-nocache", "./..."}, &out, &errw); code != exitInternal {
		t.Fatalf("-nocache: exit %d, want %d", code, exitInternal)
	}
	out.Reset()
	errw.Reset()
	if code := run(clean, []string{"-novet", "-only", "nosuch", "./..."}, &out, &errw); code != exitInternal {
		t.Fatalf("unknown analyzer: exit %d, want %d", code, exitInternal)
	}
}

// -timing must attribute wall time to every analyzer that ran.
func TestTimingAggregation(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"go.mod": tmpGoMod,
		"a/a.go": "package a\n\nfunc A() int { return 1 }\n",
	})
	analyzers, err := selectAnalyzers("")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer

	res, err := runAnalyzers(root, analyzers, []string{"./..."}, false, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timing) != len(analyzers) {
		t.Fatalf("run timed %d analyzers, want %d", len(res.Timing), len(analyzers))
	}
	for _, a := range analyzers {
		if _, ok := res.Timing[a.Name]; !ok {
			t.Errorf("no timing entry for %s", a.Name)
		}
	}
	if err := reportTiming(res, false, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "xvet: timing: 1 packages analyzed, analyzers") {
		t.Fatalf("human timing summary missing:\n%s", out.String())
	}
	out.Reset()
	if err := reportTiming(res, true, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"millis"`) {
		t.Fatalf("JSON timing records missing:\n%s", out.String())
	}
}

// Every xvet run is cold — each package is loaded and analyzed from
// source — so a full sweep of this module, all analyzers, must stay
// fast enough to run on every edit: under five seconds.
func TestColdSweepUnderFiveSeconds(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree sweep")
	}
	analyzers, err := selectAnalyzers("")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := runAnalyzers("../..", analyzers, []string{"./..."}, false, io.Discard)
	dur := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loaded < 10 {
		t.Fatalf("sweep analyzed %d packages; want the whole module", res.Loaded)
	}
	if dur >= 5*time.Second && !raceEnabled {
		t.Errorf("cold sweep took %v, want < 5s", dur)
	}
	t.Logf("cold sweep: %v over %d packages", dur, res.Loaded)
}
