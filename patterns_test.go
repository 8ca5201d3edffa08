package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRunPatternsNameLiveTests: every alternative of every -run and
// -fuzz pattern in the Makefile and the CI workflow matches some Test
// or Fuzz function in the tree, so a test renamed or deleted out from
// under a make target or a CI step fails here instead of silently
// dropping out of it.
func TestRunPatternsNameLiveTests(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	var names []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	flag := regexp.MustCompile(`-(run|fuzz)[= ]('[^']*'|"[^"]*"|[^\s'"]+)`)
	alternatives := 0
	for _, file := range []string{"Makefile", filepath.Join(".github", "workflows", "ci.yml")} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flag.FindAllStringSubmatch(string(src), -1) {
			for _, alt := range strings.Split(strings.Trim(m[2], `'"`), "|") {
				alternatives++
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: -%s alternative %q: %v", file, m[1], alt, err)
					continue
				}
				live := false
				for _, name := range names {
					if re.MatchString(name) {
						live = true
						break
					}
				}
				if !live {
					t.Errorf("%s: -%s alternative %q matches no Test or Fuzz function", file, m[1], alt)
				}
			}
		}
	}
	if alternatives == 0 {
		t.Fatal("no -run or -fuzz pattern found; the scan no longer reads the files")
	}
	t.Logf("%d alternatives over %d Test/Fuzz functions", alternatives, len(names))
}
