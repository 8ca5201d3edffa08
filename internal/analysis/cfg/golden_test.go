package cfg_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

var update = flag.Bool("update", false, "rewrite the golden CFG/reaching dumps")

// Golden dumps for representative engine functions: the morsel
// worker's claiming loop (infinite for with early returns), the morsel
// executor's fan-out (branch-heavy with early returns, a spawning loop
// and a goroutine literal), and the plan cache lookup
// (lock/branch/loop interplay). These pin the block structure
// the dataflow analyzers reason over — a CFG builder regression shows
// up as a readable diff, not a mysterious analyzer miss.
func TestEngineGoldens(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load("repro/internal/engine")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"drain", "collectMorsels", "get"} {
		fd := findFunc(t, pkg, name)
		g := cfg.New(name, fd.Body)
		reach := cfg.Reaching(g, pkg.Info, paramVars(pkg.Info, fd), fd.Body)
		dump := g.Dump(describeNode(pkg.Fset)) + "\n" + reach.Dump(pkg.Fset)
		compareGolden(t, filepath.Join("testdata", name+".golden"), dump)
	}
}

func findFunc(t *testing.T, pkg *analysis.Package, name string) *ast.FuncDecl {
	t.Helper()
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name && fd.Body != nil {
				return fd
			}
		}
	}
	t.Fatalf("function %s not found in %s", name, pkg.Path)
	return nil
}

func paramVars(info *types.Info, fd *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, n := range field.Names {
			if v, ok := info.Defs[n].(*types.Var); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// describeNode renders a node as its syntax kind plus source line —
// stable under reformatting, precise enough to pin block contents.
func describeNode(fset *token.FileSet) func(ast.Node) string {
	return func(n ast.Node) string {
		kind := strings.TrimPrefix(fmt.Sprintf("%T", n), "*ast.")
		return fmt.Sprintf("%s L%d", kind, fset.Position(n.Pos()).Line)
	}
}

func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("%s: dump differs from golden (run with -update after verifying)\ngot:\n%s", path, got)
	}
}
