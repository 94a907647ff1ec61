// Command osiris-pair measures a change against a parent revision with
// the benchmark: it checks the parent out as a git worktree under
// .bench_build/, runs each tree's own osirisbench/run.sh in alternating
// pairs (parent first in even pairs, the change first in odd ones) at
// seed 1, each run as long as BENCHMARK.json's run_seconds, on every
// workload of BENCHMARK.json, and writes BENCH_pairs.json at the root
// with, per workload and end-to-end metric, both trees' medians and
// interquartile ranges, the pairs the change won, and whether the
// difference is resolved. The change is the working tree it runs in.
//
//	go run ./cmd/osiris-pair -rev 4c93e14
//
// Both trees must produce the same simulated outputs: a fingerprint
// that differs between them fails the run.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef is one end-to-end metric of BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkDef is the part of BENCHMARK.json the pairs need.
type benchmarkDef struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

// provenance and result are the last two lines osirisbench prints.
type provenance struct {
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Fingerprint string `json:"fingerprint"`
}

type result struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// run is one benchmark run of one tree.
type run struct {
	prov provenance
	vals map[string]float64
}

// spread is a sample's median and quartiles.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	IQR    float64 `json:"iqr"`
}

// metricPairs is one metric's comparison over the pairs.
type metricPairs struct {
	Name     string    `json:"name"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Parent   spread    `json:"parent"`
	Change   spread    `json:"change"`
	DeltaPct float64   `json:"delta_pct"` // change median against parent median
	Won      int       `json:"won"`       // pairs in which the change was better
	Lost     int       `json:"lost"`      // pairs in which it was worse
	Resolved bool      `json:"resolved"`
	ParentV  []float64 `json:"parent_runs"`
	ChangeV  []float64 `json:"change_runs"`
}

// workloadPairs is one workload's comparison.
type workloadPairs struct {
	Name              string        `json:"name"`
	ParentFingerprint string        `json:"parent_fingerprint"`
	ChangeFingerprint string        `json:"change_fingerprint"`
	Metrics           []metricPairs `json:"metrics"`
}

// report is BENCH_pairs.json.
type report struct {
	Schema       string          `json:"schema"`
	Rev          string          `json:"rev"`
	Change       string          `json:"change"`
	Seed         int64           `json:"seed"`
	Seconds      int             `json:"seconds"`
	Pairs        int             `json:"pairs"`
	Order        string          `json:"order"`
	ResolvedRule string          `json:"resolved_rule"`
	NumCPU       int             `json:"num_cpu"`
	GOMAXPROCS   int             `json:"gomaxprocs"`
	GoVersion    string          `json:"go_version"`
	Workloads    []workloadPairs `json:"workloads"`
}

// config is one comparison: which trees, workloads and how long.
type config struct {
	parentDir, changeDir string
	rev, change          string
	workloads            []string
	pairs, seconds       int
	seed                 int64
	metrics              []metricDef
	log                  func(format string, args ...any)
}

// The pairs per workload and their seed.
const (
	pairs = 10
	seed  = 1
)

func main() {
	rev := flag.String("rev", "", "parent revision to compare the working tree against (required)")
	flag.Parse()
	if *rev == "" {
		fmt.Fprintln(os.Stderr, "osiris-pair: need -rev")
		os.Exit(2)
	}
	if err := pairMain(*rev); err != nil {
		fmt.Fprintf(os.Stderr, "osiris-pair: %v\n", err)
		os.Exit(1)
	}
}

func pairMain(rev string) error {
	root, err := git(".", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	sha, err := git(root, "rev-parse", "--verify", rev+"^{commit}")
	if err != nil {
		return err
	}
	head, err := git(root, "rev-parse", "HEAD")
	if err != nil {
		return err
	}
	bench, err := readBenchmark(root)
	if err != nil {
		return err
	}
	if bench.RunSeconds < 1 {
		return fmt.Errorf("BENCHMARK.json: run_seconds %d", bench.RunSeconds)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	dir := filepath.Join(root, ".bench_build", "pair-"+sha[:12])
	if _, err := os.Stat(dir); err == nil {
		return fmt.Errorf("%s exists: remove it with git worktree remove --force %s", dir, dir)
	}
	if _, err := git(root, "worktree", "add", "--detach", dir, sha); err != nil {
		return err
	}
	defer func() {
		if _, err := git(root, "worktree", "remove", "--force", dir); err != nil {
			fmt.Fprintf(os.Stderr, "osiris-pair: %v\n", err)
		}
	}()
	rep, err := compare(config{
		parentDir: dir, changeDir: root,
		rev: sha, change: "working tree at " + head,
		workloads: names, pairs: pairs, seconds: bench.RunSeconds, seed: seed,
		metrics: bench.EndToEnd,
		log:     func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) },
	})
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(root, "BENCH_pairs.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "osiris-pair: wrote %s\n", path)
	return nil
}

// git runs a git command in dir and returns its trimmed output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

func readBenchmark(root string) (benchmarkDef, error) {
	var b benchmarkDef
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return b, err
	}
	return b, json.Unmarshal(data, &b)
}

// compare runs the pairs of every workload and reduces them.
func compare(cfg config) (report, error) {
	rep := report{
		Schema: "osiris-pairs/1", Rev: cfg.rev, Change: cfg.change,
		Seed: cfg.seed, Seconds: cfg.seconds, Pairs: cfg.pairs,
		Order:        "per workload, pair i runs the parent first when i is even and the change first when i is odd",
		ResolvedRule: "the change's median differs from the parent's by more than the parent's IQR (q3-q1)",
	}
	for _, w := range cfg.workloads {
		var parent, change []run
		for i := 0; i < cfg.pairs; i++ {
			for _, isParent := range []bool{i%2 == 0, i%2 == 1} {
				dir, side := cfg.changeDir, "change"
				if isParent {
					dir, side = cfg.parentDir, "parent"
				}
				r, err := benchRun(dir, w, cfg.seed, cfg.seconds)
				if err != nil {
					return rep, err
				}
				if isParent {
					parent = append(parent, r)
				} else {
					change = append(change, r)
				}
				if cfg.log != nil {
					cfg.log("%s pair %d %s: cells_per_s %.0f", w, i, side, r.vals["cells_per_s"])
				}
			}
		}
		wp, err := reduce(w, parent, change, cfg.metrics)
		if err != nil {
			return rep, err
		}
		rep.Workloads = append(rep.Workloads, wp)
		last := change[len(change)-1].prov
		rep.NumCPU, rep.GOMAXPROCS, rep.GoVersion = last.NumCPU, last.GOMAXPROCS, last.GoVersion
	}
	return rep, nil
}

// benchRun runs one tree's benchmark on one workload.
func benchRun(dir, workload string, seed int64, seconds int) (run, error) {
	cmd := exec.Command("bash", "osirisbench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return run{}, fmt.Errorf("%s: %s: %v\n%s", dir, workload, err, tail(stderr.String(), 10))
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		return run{}, fmt.Errorf("%s: %s: want a provenance and a result line, got %q", dir, workload, out)
	}
	var r run
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &r.prov); err != nil {
		return run{}, fmt.Errorf("%s: %s: provenance: %v", dir, workload, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return run{}, fmt.Errorf("%s: %s: result: %v", dir, workload, err)
	}
	if !res.Correct {
		return run{}, fmt.Errorf("%s: %s: the run's checks failed", dir, workload)
	}
	r.vals = map[string]float64{}
	for k, m := range res.Metrics {
		r.vals[k] = m.Value
	}
	return r, nil
}

func tail(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}

// reduce compares one workload's runs: every run of both trees must
// have one fingerprint, and every end-to-end metric must be in every
// run.
func reduce(name string, parent, change []run, metrics []metricDef) (workloadPairs, error) {
	wp := workloadPairs{Name: name}
	var err error
	if wp.ParentFingerprint, err = oneFingerprint(parent); err != nil {
		return wp, fmt.Errorf("%s: parent: %v", name, err)
	}
	if wp.ChangeFingerprint, err = oneFingerprint(change); err != nil {
		return wp, fmt.Errorf("%s: change: %v", name, err)
	}
	if wp.ParentFingerprint != wp.ChangeFingerprint {
		return wp, fmt.Errorf("%s: fingerprints differ: parent %s, change %s", name, wp.ParentFingerprint, wp.ChangeFingerprint)
	}
	for _, m := range metrics {
		mp := metricPairs{Name: m.Name, Unit: m.Unit, Better: m.Better}
		for i := range parent {
			p, okP := parent[i].vals[m.Name]
			c, okC := change[i].vals[m.Name]
			if !okP || !okC {
				return wp, fmt.Errorf("%s: metric %s missing from pair %d", name, m.Name, i)
			}
			mp.ParentV = append(mp.ParentV, p)
			mp.ChangeV = append(mp.ChangeV, c)
			switch d := sign(c-p, m.Better); {
			case d > 0:
				mp.Won++
			case d < 0:
				mp.Lost++
			}
		}
		mp.Parent, mp.Change = spreadOf(mp.ParentV), spreadOf(mp.ChangeV)
		if mp.Parent.Median != 0 {
			mp.DeltaPct = 100 * (mp.Change.Median - mp.Parent.Median) / mp.Parent.Median
		}
		diff := mp.Change.Median - mp.Parent.Median
		mp.Resolved = diff > mp.Parent.IQR || -diff > mp.Parent.IQR
		wp.Metrics = append(wp.Metrics, mp)
	}
	return wp, nil
}

// sign is +1 when a difference d (change minus parent) is an
// improvement, -1 when it is a regression, 0 for a tie.
func sign(d float64, better string) int {
	if better == "lower" {
		d = -d
	}
	switch {
	case d > 0:
		return 1
	case d < 0:
		return -1
	}
	return 0
}

func oneFingerprint(runs []run) (string, error) {
	fp := runs[0].prov.Fingerprint
	for _, r := range runs {
		if r.prov.Fingerprint != fp {
			return "", errors.New("runs of one tree disagree on the fingerprint")
		}
	}
	if fp == "" {
		return "", errors.New("no fingerprint")
	}
	return fp, nil
}

// spreadOf returns xs's median and quartiles, interpolating linearly
// between order statistics.
func spreadOf(xs []float64) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		h := p * float64(len(s)-1)
		lo := int(h)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	sp := spread{Median: q(0.5), Q1: q(0.25), Q3: q(0.75)}
	sp.IQR = sp.Q3 - sp.Q1
	return sp
}
