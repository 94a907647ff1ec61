package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// checkedDocs are the documents whose citations the tests below check.
var checkedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

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
	for _, doc := range checkedDocs {
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

// codeSpan matches a backticked code span.
var codeSpan = regexp.MustCompile("`([^`]+)`")

// identPath matches a span that is a dotted Go identifier path of two
// or three parts — pkg.Name, Type.Member or pkg.Type.Member — optionally
// followed by a call's arguments.
var identPath = regexp.MustCompile(`^([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\(.*\))?$`)

// unstar rewrites the pointer-receiver forms (*pkg.Type).Member and
// pkg.(*Type).Member as pkg.Type.Member.
var unstar = strings.NewReplacer(".(*", ".", "(*", "", ").", ".")

// fileExt matches a dotted name that is a file, not an identifier.
var fileExt = regexp.MustCompile(`\.(go|md|json|sh|txt|ya?ml|mod|sum|out|csv|svg|png|html)$`)

// goDecls parses every Go file in the repository and returns the
// package names and the declared identifiers, keyed "pkg.Name",
// "Type.Member" (methods, struct fields and interface methods) and
// "pkg.Type.Member", and the set of declared type names.
func goDecls(t *testing.T) (pkgs, decls, types map[string]bool) {
	pkgs, decls, types = map[string]bool{}, map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	member := func(pkg, typ, name string) {
		decls[typ+"."+name] = true
		decls[pkg+"."+typ+"."+name] = true
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, the benchmark's build cache
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		pkgs[pkg] = true
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				if dl.Recv == nil {
					decls[pkg+"."+dl.Name.Name] = true
					continue
				}
				recv := dl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok {
					recv = idx.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					member(pkg, id.Name, dl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range dl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							decls[pkg+"."+n.Name] = true
						}
					case *ast.TypeSpec:
						typ := spec.Name.Name
						decls[pkg+"."+typ] = true
						types[typ] = true
						var fields *ast.FieldList
						switch tt := spec.Type.(type) {
						case *ast.StructType:
							fields = tt.Fields
						case *ast.InterfaceType:
							fields = tt.Methods
						}
						if fields == nil {
							continue
						}
						for _, fl := range fields.List {
							for _, n := range fl.Names {
								member(pkg, typ, n.Name)
							}
							if len(fl.Names) == 0 { // embedded
								ft := fl.Type
								if star, ok := ft.(*ast.StarExpr); ok {
									ft = star.X
								}
								switch ft := ft.(type) {
								case *ast.Ident:
									member(pkg, typ, ft.Name)
								case *ast.SelectorExpr:
									member(pkg, typ, ft.Sel.Name)
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs, decls, types
}

// TestDocsCiteExistingIdentifiers fails when README.md, DESIGN.md or
// EXPERIMENTS.md cites, in backticks, a Go identifier path — pkg.Name,
// Type.Member or pkg.Type.Member — that nothing in the repository
// declares. A span counts as a Go citation when its first part is a
// package of the repository, a declared type or an exported name and
// no part has an underscore; file names and metric names (snake_case)
// do not count.
func TestDocsCiteExistingIdentifiers(t *testing.T) {
	pkgs, decls, types := goDecls(t)
	for _, doc := range checkedDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
				m := identPath.FindStringSubmatch(unstar.Replace(span[1]))
				if m == nil || fileExt.MatchString(span[1]) {
					continue
				}
				name := m[1] + "." + m[2]
				if m[3] != "" {
					name += "." + m[3]
				}
				if decls[name] {
					continue
				}
				goLike := pkgs[m[1]] || types[m[1]] || token.IsExported(m[1])
				if goLike && !strings.Contains(name, "_") {
					t.Errorf("%s:%d cites %s, which nothing in the repository declares", doc, i+1, name)
				}
			}
		}
	}
}
