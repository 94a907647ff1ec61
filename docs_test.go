package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedName matches a backticked test, benchmark or fuzz target name at
// the start of a code span, e.g. `TestScenarios` or
// `TestScenarios/.*/incast`. Go only runs such a function when the
// prefix is followed by a non-lowercase character, which keeps
// `Testbed` out.
var citedName = regexp.MustCompile("`((?:Test|Benchmark|Fuzz)(?:[A-Z0-9_][A-Za-z0-9_]*)?)\\b")

// definedName matches the declaration of a top-level test, benchmark or
// fuzz function.
var definedName = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)

// TestDocsCiteExistingTests fails when README.md, DESIGN.md or
// EXPERIMENTS.md cites a test, benchmark or fuzz target that no
// _test.go file in the repository defines.
func TestDocsCiteExistingTests(t *testing.T) {
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range definedName.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range citedName.FindAllStringSubmatch(line, -1) {
				if !defined[m[1]] {
					t.Errorf("%s:%d cites %s, which no _test.go file defines", doc, i+1, m[1])
				}
			}
		}
	}
}
