package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runOf is a run with the given fingerprint and metric values.
func runOf(fp string, vals map[string]float64) run {
	return run{prov: provenance{Fingerprint: fp}, vals: vals}
}

func TestSpreadInterpolatesQuartiles(t *testing.T) {
	sp := spreadOf([]float64{5, 1, 4, 2, 3})
	if sp.Median != 3 || sp.Q1 != 2 || sp.Q3 != 4 || sp.IQR != 2 {
		t.Errorf("spread of 1..5 = %+v", sp)
	}
	sp = spreadOf([]float64{10, 20, 30, 40})
	if sp.Median != 25 || sp.Q1 != 17.5 || sp.Q3 != 32.5 {
		t.Errorf("spread of 10..40 = %+v", sp)
	}
	if sp := spreadOf([]float64{7}); sp.Median != 7 || sp.IQR != 0 {
		t.Errorf("spread of one run = %+v", sp)
	}
}

// reduce counts the pairs each side won by the metric's direction and
// calls a difference resolved only past the parent's IQR.
func TestReduceWonAndResolved(t *testing.T) {
	metrics := []metricDef{{Name: "rate", Better: "higher"}, {Name: "allocs", Better: "lower"}}
	var parent, change []run
	for i, p := range []float64{100, 102, 98, 101} {
		parent = append(parent, runOf("f", map[string]float64{"rate": p, "allocs": 1}))
		change = append(change, runOf("f", map[string]float64{"rate": []float64{120, 101, 125, 130}[i], "allocs": 1 + float64(i%2)}))
	}
	wp, err := reduce("w", parent, change, metrics)
	if err != nil {
		t.Fatal(err)
	}
	rate, allocs := wp.Metrics[0], wp.Metrics[1]
	if rate.Won != 3 || rate.Lost != 1 || !rate.Resolved || rate.DeltaPct <= 0 {
		t.Errorf("rate: %+v", rate)
	}
	if allocs.Won != 0 || allocs.Lost != 2 || !allocs.Resolved {
		t.Errorf("allocs: %+v", allocs)
	}
	for i, c := range []float64{99, 103, 100, 102} {
		change[i].vals["rate"] = c
	}
	if wp, _ := reduce("w", parent, change, metrics); wp.Metrics[0].Resolved {
		t.Errorf("a median inside the parent's IQR counts as resolved: %+v", wp.Metrics[0])
	}
}

func TestReduceRejectsFingerprintAndMissingMetric(t *testing.T) {
	metrics := []metricDef{{Name: "rate", Better: "higher"}}
	parent := []run{runOf("a", map[string]float64{"rate": 1})}
	if _, err := reduce("w", parent, []run{runOf("b", map[string]float64{"rate": 1})}, metrics); err == nil || !strings.Contains(err.Error(), "fingerprints differ") {
		t.Errorf("differing fingerprints: err = %v", err)
	}
	if _, err := reduce("w", parent, []run{runOf("a", map[string]float64{})}, metrics); err == nil {
		t.Error("a missing metric was not reported")
	}
}

// Comparing the working tree with itself — one pair of paper_testbed
// runs of one second — gives one fingerprint and every end-to-end
// metric of BENCHMARK.json. It builds the benchmark with its own cache
// under .bench_build/, which takes a few seconds the first time.
func TestPairSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark twice")
	}
	for _, tool := range []string{"bash", "go"} {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skipf("no %s: %v", tool, err)
		}
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bench, err := readBenchmark(root)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := compare(config{
		parentDir: root, changeDir: root, rev: "self", change: "self",
		workloads: []string{"paper_testbed"}, pairs: 1, seconds: 1, seed: 1,
		metrics: bench.EndToEnd,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != 1 {
		t.Fatalf("%d workloads reported, want 1", len(rep.Workloads))
	}
	wp := rep.Workloads[0]
	if wp.ParentFingerprint == "" || wp.ParentFingerprint != wp.ChangeFingerprint {
		t.Errorf("fingerprints %q and %q", wp.ParentFingerprint, wp.ChangeFingerprint)
	}
	if len(wp.Metrics) != len(bench.EndToEnd) {
		t.Fatalf("%d metrics, want %d", len(wp.Metrics), len(bench.EndToEnd))
	}
	for i, m := range wp.Metrics {
		if m.Name != bench.EndToEnd[i].Name || len(m.ParentV) != 1 || len(m.ChangeV) != 1 {
			t.Errorf("metric %d: %+v", i, m)
		}
	}
	if rep.NumCPU == 0 || rep.GOMAXPROCS == 0 || rep.GoVersion == "" {
		t.Errorf("provenance missing: %+v", rep)
	}
}
