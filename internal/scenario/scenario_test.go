package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// cell is one point of the invariance matrix.
type cell struct {
	name string
	cfg  Config
}

// serial is the reference cell: one worker, run at GOMAXPROCS 1.
var serial = cell{"serial", Config{Quick: true, Workers: 1}}

// matrix holds the cells run at GOMAXPROCS 2. Each differs from serial
// in the worker count and GOMAXPROCS, and the second also in the
// telemetry plane. Every scenario's deterministic JSON must be
// byte-identical across all of them and serial. The switch has one
// machine, so the fabric mode is no dimension here: the per-cell
// reference machine is diffed against it by FuzzSwitchTrain
// (internal/atm).
var matrix = []cell{
	{"workers=4", Config{Quick: true, Workers: 4}},
	{"telemetry", Config{Quick: true, Workers: 4, Telemetry: true}},
}

// alone marks the scenarios that read process-wide allocation counters
// (runtime.MemStats, testing.AllocsPerRun): beside other runs they
// would count foreign allocations, so they do not run in parallel. All
// other cells do, to keep the matrix within a few CPU-bound passes.
var alone = map[string]bool{"simcore": true, "tenants": true}

// quickPinned maps the scenarios whose full-size artifact takes too long
// to regenerate in tier-1 to their committed quick-size deterministic
// JSON: incast's full run takes about 20 s.
var quickPinned = map[string]string{"incast": "testdata/incast_quick.json"}

// TestScenarios runs every registered scenario at quick size, serially
// at GOMAXPROCS 1 and then across the matrix at GOMAXPROCS 2: each
// report must pass its scenario's Check, and its deterministic JSON
// must not depend on GOMAXPROCS, the worker count or the telemetry
// plane. The serial cell's JSON of a quickPinned
// scenario must match its committed file.
func TestScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry three times")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	all := All()
	bases := make([]Report, len(all))
	t.Run("gomaxprocs=1", func(t *testing.T) {
		for i, s := range all {
			t.Run(s.Name, func(t *testing.T) {
				bases[i] = runCell(t, s, serial, Report{})
				if s.Artifact != "" {
					checkSchema(t, s, bases[i])
				}
				if path, ok := quickPinned[s.Name]; ok {
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(bases[i].JSON, want) {
						t.Errorf("%s regenerates differently:\n%s", path, firstDiff(want, bases[i].JSON))
					}
				}
			})
		}
	})
	runtime.GOMAXPROCS(2)
	t.Run("gomaxprocs=2", func(t *testing.T) {
		for i, s := range all {
			i, s := i, s
			if bases[i].JSON == nil {
				continue
			}
			for _, c := range matrix {
				c := c
				t.Run(s.Name+"/"+c.name, func(t *testing.T) {
					if !alone[s.Name] {
						t.Parallel()
					}
					runCell(t, s, c, bases[i])
				})
			}
		}
	})
}

// runCell runs one scenario in one cell, checks its gates, and compares
// its deterministic JSON with base's; it returns the report as the base
// when base is empty.
func runCell(t *testing.T, s Scenario, c cell, base Report) Report {
	t.Helper()
	r, err := s.Run(c.cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if r.JSON == nil {
		t.Fatalf("%s: empty report", c.name)
	}
	if s.Check != nil {
		if err := s.Check(r); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	if base.JSON == nil {
		return r
	}
	if !bytes.Equal(r.JSON, base.JSON) {
		t.Errorf("%s: deterministic JSON differs from the serial cell:\n%s", c.name, firstDiff(base.JSON, r.JSON))
	}
	if s.Name == "simcore" {
		checkAllocSpread(t, c.name, base, r)
	}
	return base
}

// checkAllocSpread requires the allocation gate's reading to agree
// across cells that differ only in how the host runs the engine
// (allocation counts are deterministic, unlike wall time).
func checkAllocSpread(t *testing.T, name string, base, r Report) {
	t.Helper()
	for i, w := range r.value.(simcoreWall).Results {
		b := base.value.(simcoreWall).Results[i]
		if math.Abs(w.AllocsPerCell-b.AllocsPerCell) > 0.005 {
			t.Errorf("%s: %s allocs/cell %.4f differs from %.4f", name, w.Name, w.AllocsPerCell, b.AllocsPerCell)
		}
	}
}

// TestScenarioArtifacts pins full-size runs against the committed
// artifacts: the deterministic part of every artifact but incast's
// (quickPinned) regenerates byte for byte.
func TestScenarioArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size runs")
	}
	for _, s := range All() {
		if s.Artifact == "" || quickPinned[s.Name] != "" {
			continue
		}
		t.Run(s.Name, func(t *testing.T) {
			r, err := s.Run(Config{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if s.Check != nil {
				if err := s.Check(r); err != nil {
					t.Error(err)
				}
			}
			want, err := os.ReadFile(filepath.Join("..", "..", s.Artifact))
			if err != nil {
				t.Fatal(err)
			}
			if want := withoutWall(want); !bytes.Equal(r.JSON, want) {
				t.Errorf("%s regenerates differently:\n%s", s.Artifact, firstDiff(want, r.JSON))
			}
		})
	}
}

// schemaless names the scenarios whose artifact carries no schema: the
// paper's own results, since the parallel scenario fingerprints fig3's
// JSON. TestScenarioArtifacts pins them byte for byte.
var schemaless = map[string]bool{"table1": true, "fig2": true, "fig3": true, "fig4": true, "ablations": true}

// checkSchema pins s's committed artifact's schema, which every
// artifact but a schemaless scenario's must carry, to the one r, s's
// report, carries.
func checkSchema(t *testing.T, s Scenario, r Report) {
	t.Helper()
	artifact := s.Artifact
	var got, want struct {
		Schema string `json:"schema"`
	}
	data, err := os.ReadFile(filepath.Join("..", "..", artifact))
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	if err == nil {
		err = json.Unmarshal(r.JSON, &got)
	}
	if err != nil {
		t.Fatalf("%s: %v", artifact, err)
	}
	if (got.Schema == "" && !schemaless[s.Name]) || got.Schema != want.Schema {
		t.Errorf("%s has schema %q, the scenario writes %q", artifact, want.Schema, got.Schema)
	}
}

// withoutWall strips an artifact's wall-clock section, its last
// top-level key, leaving its deterministic JSON.
func withoutWall(artifact []byte) []byte {
	if i := bytes.LastIndex(artifact, []byte(",\n  \"wall\": ")); i >= 0 {
		return append(artifact[:i:i], "\n}\n"...)
	}
	return artifact
}

// firstDiff shows the first line where two JSON documents differ.
func firstDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n- %s\n+ %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
