package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
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
	"queue.SpinRing.Init":          "§2.1.1 lock-based ring the paper rejects; its tests reset it between runs",
	// References and oracles.
	"atm.Reassemble":                "reference reassembly the segmentation tests and fuzz targets compare against",
	"cache.Cache.StaleLines":        "oracle for the cache-coherence tests",
	"fault.GilbertElliott.MeanLoss": "stationary loss of the burst chain, which the fault tests hold BurstLoss to",
	"msg.Message.SetAppend":         "join, the inverse SplitInto's split-then-join property and the message fuzz check",
	"queue.Op.Len":                  "reader-side count op the queue tests and the engines' proc reference run",
	"queue.Op.N":                    "result of the Len and Observe ops the engines' proc reference runs",
	"sim.Chan.Recv":                 "blocking receive of the engines' proc reference bodies and the tests' procs",
	"sim.Chan.Send":                 "blocking send of the tests' procs; the board sends with SendCont",
	"sim.Engine.At":                 "closure form of AtCall, which the tests schedule with",
	// Set-up and counter resets between a test's phases.
	"board.Board.ResetStats":       "counter reset between test phases",
	"bus.Bus.ResetStats":           "counter reset between test phases",
	"cache.Cache.ResetStats":       "counter reset between test phases",
	"dpm.Memory.ResetStats":        "counter reset between test phases",
	"driver.Driver.ResetStats":     "counter reset between test phases",
	"fbuf.Manager.RegisterMetrics": "fbuf telemetry family the fbuf tests read; no system registers it yet",
	// Read-only observers tests read.
	"adc.ADC.Violations":          "adc observer: violations attributed to one ADC",
	"adc.ADC.Virtual":             "adc observer: multiplexed or dedicated",
	"adc.Manager.VirtualOpen":     "adc observer: virtual ADCs open",
	"atm.Link.Injector":           "fault-injector observer",
	"atm.SwitchPort.Index":        "switch observer: port number",
	"board.Board.Host":            "board observer: its host",
	"board.Board.LookupVCI":       "demux observer",
	"board.Channel.Open":          "channel observer: opened or not",
	"board.Channel.QuotaDropped":  "channel observer: cells lost to the FIFO quota",
	"board.Channel.RingDropped":   "channel observer: descriptors lost to the ring grace",
	"bus.Bus.Config":              "bus observer: effective configuration",
	"bus.Bus.CycleTime":           "bus observer: one cycle's duration",
	"cache.Cache.Resident":        "cache observer",
	"cache.Cache.Size":            "cache observer: capacity",
	"dpm.Memory.LockHeld":         "lock-register observer",
	"dpm.Memory.Stats":            "dual-port memory observer: access counters",
	"driver.Driver.Board":         "driver observer: its board",
	"driver.Driver.Host":          "driver observer: its host",
	"driver.Driver.Space":         "driver observer: the address space its buffers live in",
	"fbuf.Fbuf.Cached":            "fbuf observer",
	"fbuf.Fbuf.PhysBuffers":       "fbuf observer: physical extents",
	"fbuf.Fbuf.Size":              "fbuf observer: capacity",
	"fbuf.Manager.CachedPaths":    "fbuf observer: live path pools",
	"fbuf.PathChannel.Driver":     "fbuf observer: the path's channel driver",
	"mem.AddressSpace.Mapped":     "page-table observer: one page's frame",
	"mem.AddressSpace.MappedVPNs": "page-table observer",
	"mem.AddressSpace.Name":       "address-space observer: its name",
	"mem.Memory.FreePages":        "frame-allocator observer",
	"mem.Memory.Wired":            "wire-count observer",
	"metrics.Registry.Get":        "registry observer: one metric by name",
	"metrics.Registry.Len":        "registry observer: metric count",
	"metrics.Sketch.Targets":      "sketch observer",
	"sim.Engine.Seed":             "engine observer: its seed",
	"sim.Pool.Free":               "pool observer: records on the free list; quiesce checks read Outstanding",
	"sim.Proc.Done":               "proc observer: body returned",
	"sim.Proc.Name":               "proc observer: its name",
	"sim.Resource.Held":           "resource observer",
	"sim.Resource.QueueLen":       "resource observer: waiters",
}

// TestInternalExportsHaveCallers fails when an exported function or
// method in a non-test file under internal/ is reached from no non-test
// file of the module (examples/, cmd/ and osirisbench/ included), unless
// testOnlyExports names it; and when testOnlyExports names one that has
// a caller or no longer exists. A method whose name some interface declares
// is exempt, since it may be reached only through that interface.
// References are resolved with go/types: every non-test package is
// type-checked from source (the standard library too), so a selector
// counts for the method of its receiver's type only, not for every
// method of that name.
func TestInternalExportsHaveCallers(t *testing.T) {
	type decl struct {
		key, use, name string // "pkg.Type.Method", "import/path.Type.Method", "Method"
		method         bool
		pos            token.Position
	}
	fset := token.NewFileSet()
	var decls []decl
	files := map[string][]*ast.File{} // by import path, the files this build compiles
	ifaceMethods := map[string]bool{"String": true, "Error": true}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkgPath := path.Join("repro", dir)
		if ok, err := build.Default.MatchFile(filepath.Dir(p), filepath.Base(p)); err != nil {
			return err
		} else if ok {
			files[pkgPath] = append(files[pkgPath], f)
		}
		for _, dl := range f.Decls {
			fn, ok := dl.(*ast.FuncDecl)
			if !ok || !strings.HasPrefix(dir, "internal/") || !fn.Name.IsExported() {
				continue
			}
			d := decl{key: f.Name.Name + "." + fn.Name.Name, use: pkgPath + "." + fn.Name.Name, name: fn.Name.Name, pos: fset.Position(fn.Pos())}
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
				d.key = f.Name.Name + "." + id.Name + "." + fn.Name.Name
				d.use = pkgPath + "." + id.Name + "." + fn.Name.Name
			}
			decls = append(decls, d)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	imp := &moduleImporter{fset: fset, files: files, pkgs: map[string]*types.Package{},
		std: importer.ForCompiler(fset, "source", nil), info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
	for p := range files {
		if _, err := imp.Import(p); err != nil {
			t.Fatal(err)
		}
	}
	used := map[string]bool{}
	for _, obj := range imp.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		fn = fn.Origin()
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			used[fn.Pkg().Path()+"."+fn.Name()] = true
			continue
		}
		rt := recv.Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			used[fn.Pkg().Path()+"."+named.Origin().Obj().Name()+"."+fn.Name()] = true
		}
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].key < decls[j].key })
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		if d.method && ifaceMethods[d.name] {
			used[d.use] = true
		}
		if _, listed := testOnlyExports[d.key]; listed {
			if used[d.use] {
				t.Errorf("%s: testOnlyExports names %s, which now has a caller", d.pos, d.key)
			}
			continue
		}
		if !used[d.use] {
			t.Errorf("%s: %s has no caller outside tests; delete it or add it to testOnlyExports with a reason", d.pos, d.key)
		}
	}
	for key := range testOnlyExports {
		if !seen[key] {
			t.Errorf("testOnlyExports names %s, which internal/ no longer declares", key)
		}
	}
}

// moduleImporter type-checks the module's own packages from the parsed
// files, recording every reference in info, and leaves the standard
// library to std.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
}

func (m *moduleImporter) Import(p string) (*types.Package, error) {
	fs, ok := m.files[p]
	if !ok {
		return m.std.Import(p)
	}
	if pkg := m.pkgs[p]; pkg != nil {
		return pkg, nil
	}
	pkg, err := (&types.Config{Importer: m}).Check(p, m.fset, fs, m.info)
	m.pkgs[p] = pkg
	return pkg, err
}
