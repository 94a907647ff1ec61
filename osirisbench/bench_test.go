package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks the
// program against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics requires got to hold exactly the metrics of want, each
// with its unit.
func checkMetrics(t *testing.T, got map[string]metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s not emitted", w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
	}
}

// TestBenchmarkTiny runs every workload at tiny scale, untraced and
// traced, on the default seed and a second seed: every metric of
// BENCHMARK.json must be emitted with its unit and every check pass.
func TestBenchmarkTiny(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %s unknown to the program", sw.Name)
		}
		for _, seed := range []int64{core.DefaultSeed, 2} {
			r := &runner{w: w, sz: tinySizes(), seed: seed}
			res, prov := execute(r, false, 0, 1, t.TempDir())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s seed %d: correct %v, %d/%d failed", w.name, seed, res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res.Metrics, spec.EndToEnd)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s seed %d: end-to-end metric %s is %v", w.name, seed, name, m.Value)
				}
			}
			if prov.Seed != seed || prov.NumCPU < 1 || prov.GOMAXPROCS < 1 || prov.GoVersion == "" || len(prov.Fingerprint) != 64 {
				t.Errorf("%s seed %d: incomplete provenance %+v", w.name, seed, prov)
			}

			dir := t.TempDir()
			r = &runner{w: w, sz: tinySizes(), seed: seed}
			res, _ = execute(r, true, 0, 1, dir)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s seed %d traced: correct %v, %d/%d failed", w.name, seed, res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res.Metrics, spec.PerLayer)
			checkTraceFile(t, filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed)), w.name)
		}
	}
}

// checkTraceFile requires a well-formed span tree in the trace file and,
// for paper_testbed, the 25 reference points.
func checkTraceFile(t *testing.T, path, workload string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Error(err)
		return
	}
	if len(doc.Spans) == 0 {
		t.Errorf("%s: trace has no spans", workload)
	}
	for _, s := range doc.Spans {
		if s.Parent < 0 || s.Parent >= s.ID || s.End < s.Start {
			t.Errorf("%s: malformed span %+v", workload, s)
			break
		}
	}
	if workload == "paper_testbed" && len(doc.Points) != len(paperPoints()) {
		t.Errorf("paper_testbed: trace holds %d reference points, want %d", len(doc.Points), len(paperPoints()))
	}
}

// TestPaperPoints pins the reference table: Table 1's 16 round trips and
// the figures' 9 published plateaus.
func TestPaperPoints(t *testing.T) {
	var rtt, fig int
	for _, p := range paperPoints() {
		if p.kind == rttPoint {
			rtt++
		} else {
			fig++
		}
		if p.paper <= 0 {
			t.Errorf("%s: paper value %v", p.name, p.paper)
		}
	}
	if rtt != 16 || fig != 9 {
		t.Errorf("%d Table 1 points and %d figure points, want 16 and 9", rtt, fig)
	}
}
