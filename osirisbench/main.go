// Command osirisbench is the simulator's benchmark: one workload per run,
// end-to-end metrics from untraced passes, per-layer metrics from a
// separate traced run.
//
//	osirisbench -workload paper_testbed -seed 1 -seconds 20 -trace 0
//
// Workloads (see workloads.go): paper_testbed, fabric_incast,
// tenants_churn. Every pass checks its outputs; a failed check makes the
// result incorrect and the exit code 1. The last line of standard output
// is one JSON object {"correct", "attempted", "failed", "metrics"}; the
// line before it records the provenance (CPU count, GOMAXPROCS, Go
// version, seed) and the sha256 fingerprint of the simulated outputs.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance is the line before the result.
type provenance struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Trace       int    `json:"trace"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Passes      int    `json:"passes"`
	Fingerprint string `json:"fingerprint"`
}

// passStats is one measured pass, reduced to the end-to-end figures.
type passStats struct {
	setupS, cellsPerS, allocsPerCell, bytesPerCell float64
}

// runner runs passes of one workload and accumulates their checks.
type runner struct {
	w           workloadDef
	sz          sizes
	seed        int64
	attempted   int
	failed      int
	fingerprint string
	last        passResult
}

// pass runs one pass, checks it and returns its figures. Every pass of
// a run must produce the same simulated outputs.
func (r *runner) pass(tr *tracer, l *layers) (passStats, *meter) {
	m := &meter{tr: tr}
	var res passResult
	tr.do("pass", func() { res = r.w.pass(r.sz, simSeed(r.seed), m, l) })
	fp := fingerprint(res.outputs)
	if r.fingerprint == "" {
		r.fingerprint = fp
	} else if fp != r.fingerprint {
		res.fail(1, "simulated outputs differ between passes (%s vs %s)", fp, r.fingerprint)
	}
	if res.cells == 0 {
		res.fail(1, "no cells delivered")
	}
	r.account(res)
	r.last = res
	cells := float64(max(res.cells, 1))
	return passStats{
		setupS:        m.setup.Seconds(),
		cellsPerS:     cells / m.run.Seconds(),
		allocsPerCell: float64(m.mallocs) / cells,
		bytesPerCell:  float64(m.bytes) / cells,
	}, m
}

// account adds a pass's operations and failures to the run's totals.
func (r *runner) account(res passResult) {
	for _, f := range res.failures {
		fmt.Fprintf(os.Stderr, "%s: check failed: %s\n", r.w.name, f)
	}
	r.attempted += res.attempted
	r.failed += res.failed
}

// simSeed maps the command-line seed to core.Options.Seed, whose zero
// value would otherwise select core.DefaultSeed.
func simSeed(seed int64) int64 {
	if seed == 0 {
		return core.ZeroSeed
	}
	return seed
}

func fingerprint(outputs []any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, o := range outputs {
		if err := enc.Encode(o); err != nil {
			panic(fmt.Sprintf("osirisbench: encoding outputs: %v", err))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxRSSMB is the process's peak resident memory.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measure runs one discarded warm-up pass and then timed passes until
// the time budget is spent (at least minPasses), and reports the
// end-to-end metrics as medians over the timed passes.
func measure(r *runner, budget time.Duration, minPasses int) (map[string]metric, int) {
	r.pass(nil, nil)
	var ps []passStats
	start := time.Now()
	for len(ps) < minPasses || time.Since(start) < budget {
		st, m := r.pass(nil, nil)
		ps = append(ps, st)
		fmt.Fprintf(os.Stderr, "pass %d: CPU time setup %.3fs run %.3fs check %.3fs, %.0f cells/s\n",
			len(ps), m.setup.Seconds(), m.run.Seconds(), m.check.Seconds(), st.cellsPerS)
	}
	col := func(f func(passStats) float64) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return median(xs)
	}
	setup := col(func(p passStats) float64 { return p.setupS })
	rss := maxRSSMB()
	// The model's error against the paper does not depend on the
	// workload. The other workloads report it from one untimed reference
	// pass after the timed ones, so that every run checks the calibration.
	points := r.last.points
	if len(points) == 0 {
		refM := &meter{}
		ref := paperPass(r.sz, simSeed(r.seed), refM, nil)
		r.account(ref)
		points = ref.points
		// A workload that makes no construction call of its own
		// (core.RunTenants builds its system inside the run phase)
		// reports the construction time of the reference testbeds.
		if setup == 0 {
			setup = refM.setup.Seconds()
		}
	}
	t1, fig := errMeans(points)
	out := map[string]metric{
		"cells_per_s":          {col(func(p passStats) float64 { return p.cellsPerS }), "cells/s"},
		"setup_s":              {setup, "s"},
		"allocs_per_cell":      {col(func(p passStats) float64 { return p.allocsPerCell }), "allocs/cell"},
		"alloc_bytes_per_cell": {col(func(p passStats) float64 { return p.bytesPerCell }), "B/cell"},
		"max_rss_mb":           {rss, "MB"},
		"sim_goodput_mbps":     {r.last.goodput, "Mbps"},
		"table1_err_pct":       {t1, "%"},
		"fig_err_pct":          {fig, "%"},
	}
	return out, len(ps)
}

func main() {
	name := flag.String("workload", "", "workload to run: paper_testbed, fabric_incast or tenants_churn")
	seed := flag.Int64("seed", core.DefaultSeed, "workload seed, passed to the simulation as core.Options.Seed")
	seconds := flag.Int("seconds", 20, "wall-clock seconds of timed passes (after one warm-up pass)")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass and the layer probes and reports per-layer metrics")
	outDir := flag.String("out", ".bench_build", "directory for the trace file of a traced run")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "osirisbench: bad arguments (workload %q, seed %d, seconds %d, trace %d)\n",
			*name, *seed, *seconds, *traceFlag)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	r := &runner{w: w, sz: fullSizes(), seed: *seed}
	res, prov := execute(r, *traceFlag == 1, time.Duration(*seconds)*time.Second, 3, *outDir)
	for _, v := range []any{prov, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "osirisbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs r's workload untraced for budget (at least minPasses
// timed passes) or, with trace set, as the traced run whose trace file
// goes to outDir.
func execute(r *runner, trace bool, budget time.Duration, minPasses int, outDir string) (result, provenance) {
	var metrics map[string]metric
	var prov provenance
	if !trace {
		var passes int
		metrics, passes = measure(r, budget, minPasses)
		prov = provenanceOf(r, 0, passes)
	} else {
		var doc traceDoc
		metrics, doc = tracedRun(r)
		prov = provenanceOf(r, 1, 3)
		doc.Provenance = prov
		if err := writeTrace(outDir, r.w.name, r.seed, doc); err != nil {
			fmt.Fprintf(os.Stderr, "osirisbench: %v\n", err)
			r.failed++
		}
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}, prov
}

func provenanceOf(r *runner, trace, passes int) provenance {
	return provenance{
		Workload:    r.w.name,
		Seed:        r.seed,
		Trace:       trace,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Passes:      passes,
		Fingerprint: r.fingerprint,
	}
}

// traceDoc is the trace file a traced run writes when it ends.
type traceDoc struct {
	Provenance provenance        `json:"provenance"`
	Metrics    map[string]metric `json:"metrics"`
	Points     []pointResult     `json:"paper_points,omitempty"`
	Spans      []span            `json:"spans"`
	// EventDepth is the pending-event depth sim.event_ns ran at: sampled
	// from the workload's engines if EventDepthMeasured, a fixed figure
	// otherwise.
	EventDepth         int  `json:"event_depth"`
	EventDepthMeasured bool `json:"event_depth_measured"`
}

func writeTrace(dir, workload string, seed int64, doc traceDoc) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "osirisbench: wrote %s\n", path)
	return nil
}
