// Command osiris-bench regenerates the paper's evaluation (§4): Table 1
// and Figures 2-4, printing the paper's published values next to the
// simulation's, plus the ablations, the extension planes (fault sweep,
// reliable incast, multi-tenant scale-out, telemetry snapshots) and the
// simulator's wall-clock benchmarks. It runs the scenarios of
// internal/scenario in registry order and exits nonzero if any fails
// its gates.
//
// Every table row, figure point, ablation cell, and sweep point is an
// independent, seeded, deterministic simulation, so the harness fans
// them across a parexp worker pool (-workers). Results are
// byte-identical at any worker count.
//
// A full-size run without -run writes each scenario's BENCH_*.json
// artifact into -out; -quick and -run runs write none.
//
// Usage:
//
//	osiris-bench                          # everything, full size (minutes of CPU)
//	osiris-bench -quick                   # coarser sweeps, fewer messages
//	osiris-bench -run table1 -quick       # one scenario
//	osiris-bench -run 'fig3/double.*65536'  # single sweep points by job name
//	osiris-bench -run 'incast|tenants' -workers=1
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"

	"repro/internal/scenario"
)

var (
	flagRun     = flag.String("run", "", "regexp selecting jobs by name; names start with the scenario name, e.g. 'table1', 'fig3/double.*65536', 'incast|tenants' (default: every scenario)")
	flagQuick   = flag.Bool("quick", false, "coarser sweeps and fewer messages per point")
	flagWorkers = flag.Int("workers", 0, "parallel experiment workers (0 = GOMAXPROCS, 1 = serial)")
	flagOut     = flag.String("out", ".", "directory for the BENCH_*.json artifacts of a full-size run without -run (empty: write none)")
	flagCPUProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flagMemProf = flag.String("memprofile", "", "write an allocation profile of the run to this file (records every allocation)")
)

func main() {
	flag.Parse()
	os.Exit(run())
}

// run executes the selected scenarios and returns the exit code.
func run() int {
	cfg := scenario.Config{Quick: *flagQuick, Workers: *flagWorkers}
	if *flagRun != "" {
		re, err := regexp.Compile(*flagRun)
		if err != nil {
			fmt.Fprintf(os.Stderr, "osiris-bench: bad -run regexp: %v\n", err)
			return 2
		}
		cfg.Filter = re
	}
	write := *flagOut != "" && !cfg.Quick && cfg.Filter == nil
	if *flagMemProf != "" {
		// Per-cell allocation counts are small multiplied by many; the
		// default sampling rate would see a handful of samples for the
		// whole run. Wall-clock numbers from a profiled run are not
		// quotable anyway.
		runtime.MemProfileRate = 1
	}
	if *flagCPUProf != "" {
		f, err := os.Create(*flagCPUProf)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "osiris-bench: cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	ran, failed := 0, false
	for _, s := range scenario.All() {
		r, err := s.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", s.Name, err)
			failed = true
			continue
		}
		if r.JSON == nil {
			continue
		}
		ran++
		fmt.Print(r.Text)
		if write && s.Artifact != "" {
			path := filepath.Join(*flagOut, s.Artifact)
			if err := os.WriteFile(path, r.Artifact(), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", s.Name, err)
				failed = true
			} else {
				fmt.Printf("wrote %s\n", path)
			}
		}
		if s.Check != nil {
			if err := s.Check(r); err != nil {
				fmt.Fprintln(os.Stderr, err)
				failed = true
			}
		}
	}

	if *flagMemProf != "" {
		f, err := os.Create(*flagMemProf)
		if err == nil {
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "osiris-bench: memprofile: %v\n", err)
			failed = true
		}
	}
	switch {
	case failed:
		return 1
	case ran == 0:
		fmt.Fprintf(os.Stderr, "osiris-bench: -run %q matched no job\n", *flagRun)
		return 2
	}
	return 0
}
