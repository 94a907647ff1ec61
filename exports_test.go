package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports names the exported functions and methods under
// internal/ that no non-test file calls but that stay on purpose, each
// with its reason. Keys are "pkg.Func" or "pkg.Type.Method".
var testOnlyExports = map[string]string{
	// Paper mechanisms a test reproduces.
	"bus.Bus.MaxDMAThroughputMbps": "§2.5.1 DMA throughput ceiling the bus tests check the model against",
	"fbuf.ProvisionPath":           "§3.1 fbuf path provisioning across domains, reproduced by the fbuf tests",
	"mem.Memory.Reclaim":           "§2.4 page reclamation that wiring must prevent, reproduced by the mem and queue tests",
	// References and oracles.
	"atm.Reassemble":         "reference reassembly the segmentation tests and fuzz targets compare against",
	"cache.Cache.StaleLines": "oracle for the cache-coherence tests",
	"msg.Message.SetAppend":  "join, the inverse SplitInto's split-then-join property and the message fuzz check",
	"queue.Op.N":             "result of the Len and Observe ops the engines' proc reference runs",
	"sim.Chan.Recv":          "blocking receive of the engines' proc reference bodies and the tests' procs",
	// Read-only observers tests read.
	"adc.Manager.VirtualOpen":     "adc observer: virtual ADCs open",
	"atm.Link.Injector":           "fault-injector observer",
	"board.Board.LookupVCI":       "demux observer",
	"cache.Cache.Resident":        "cache observer",
	"dpm.Memory.LockHeld":         "lock-register observer",
	"fbuf.Fbuf.Cached":            "fbuf observer",
	"fbuf.Fbuf.PhysBuffers":       "fbuf observer: physical extents",
	"fbuf.Manager.CachedPaths":    "fbuf observer: live path pools",
	"mem.AddressSpace.Mapped":     "page-table observer: one page's frame",
	"mem.AddressSpace.MappedVPNs": "page-table observer",
	"mem.Memory.FreePages":        "frame-allocator observer",
	"mem.Memory.Wired":            "wire-count observer",
	"metrics.Registry.Get":        "registry observer: one metric by name",
	"metrics.Sketch.Targets":      "sketch observer",
	"sim.Resource.Held":           "resource observer",
}

// TestInternalExportsHaveCallers fails when an exported function or
// method in a non-test file under internal/ is reached from no non-test
// file of the module (examples/, cmd/ and osirisbench/ included), unless
// testOnlyExports names it; and when testOnlyExports names one that has
// a caller or no longer exists. A method whose name some interface declares
// is exempt, since it may be reached only through that interface.
// Matching is by name: a package function counts as used when a file of
// its own package names it or a file qualifies it with its package; a
// method counts as used when any selector names it.
func TestInternalExportsHaveCallers(t *testing.T) {
	type decl struct {
		key, pkgPath, name string
		method             bool
		pos                token.Position
	}
	fset := token.NewFileSet()
	var decls []decl
	qualified := map[string]bool{} // "import/path.Name"
	bare := map[string]bool{}      // "dir.Name" for an unqualified use in dir
	selected := map[string]bool{}  // method or field name after a dot
	ifaceMethods := map[string]bool{"String": true, "Error": true}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		declNames := map[*ast.Ident]bool{}
		for _, dl := range f.Decls {
			fn, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fn.Name] = true
			if !strings.HasPrefix(dir, "internal/") || !fn.Name.IsExported() {
				continue
			}
			d := decl{pkgPath: "repro/" + dir, name: fn.Name.Name, pos: fset.Position(fn.Pos())}
			key := f.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok {
					recv = idx.X
				}
				id, ok := recv.(*ast.Ident)
				if !ok || !id.IsExported() {
					continue
				}
				d.method = true
				key = f.Name.Name + "." + id.Name + "." + fn.Name.Name
			}
			d.key = key
			decls = append(decls, d)
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						qualified[p+"."+n.Sel.Name] = true
						return false
					}
				}
				selected[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !declNames[n] {
					bare[dir+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].key < decls[j].key })
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		used := selected[d.name] || ifaceMethods[d.name]
		if !d.method {
			used = qualified[d.pkgPath+"."+d.name] || bare[strings.TrimPrefix(d.pkgPath, "repro/")+"."+d.name]
		}
		if _, listed := testOnlyExports[d.key]; listed {
			if used {
				t.Errorf("%s: testOnlyExports names %s, which now has a caller", d.pos, d.key)
			}
			continue
		}
		if !used {
			t.Errorf("%s: %s has no caller outside tests; delete it or add it to testOnlyExports with a reason", d.pos, d.key)
		}
	}
	for key := range testOnlyExports {
		if !seen[key] {
			t.Errorf("testOnlyExports names %s, which internal/ no longer declares", key)
		}
	}
}
