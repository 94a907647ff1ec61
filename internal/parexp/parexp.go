// Package parexp executes independent simulation experiments across a
// bounded worker pool while preserving the repository's bit-for-bit
// determinism discipline.
//
// Every experiment in the evaluation harness — a Table 1 round, one
// Figure 2–4 sweep point, an ablation cell, a loss-sweep rate — is an
// isolated, seeded, deterministic run: it builds its own sim.Engine,
// shares no mutable state with its siblings, and its outcome is a pure
// function of its configuration and seed. Such jobs may execute in any
// order, on any number of OS threads, without changing a single
// simulated bit. parexp exploits that: jobs fan out across workers, and
// the results are merged back in canonical submission order, so
// everything derived from them (tables, figures, JSON artifacts) is
// byte-identical regardless of the worker count. Workers==1 runs every
// job inline on the calling goroutine in submission order — the exact
// serial path the harness used before parallel execution existed.
//
// A panicking job is recovered into that job's Result.Err, so one bad
// configuration cannot kill the rest of a sweep. Per-job wall time is
// recorded for the scaling benchmarks.
package parexp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// Job is one independent experiment. Run must be self-contained: it
// builds whatever simulated system it needs from configuration it
// captured, runs it, and returns the outcome. Run must not touch state
// shared with other jobs.
type Job struct {
	// Name identifies the job in results, error reports, and the
	// harness's -run filter, e.g. "fig3/double-cell DMA/65536".
	Name string
	// Cost is an optional scheduling hint: when any job in a batch sets
	// a non-zero Cost, parallel workers start jobs in descending Cost
	// order (longest-processing-time-first), which tightens the makespan
	// of heterogeneous sweeps. Merge order is unaffected.
	Cost float64
	// Run executes the experiment.
	Run func() (any, error)
}

// Result is one job's outcome, in the same slice position the job was
// submitted in.
type Result struct {
	Name  string
	Value any   // Run's return value; nil if it errored or panicked
	Err   error // Run's error, or the recovered panic
	// Wall is the job's wall-clock execution time.
	Wall time.Duration
}

// Runner executes batches of jobs.
type Runner struct {
	// Workers bounds the pool: 0 (or negative) selects
	// runtime.GOMAXPROCS(0); 1 executes jobs inline, serially, in
	// submission order on the calling goroutine.
	Workers int
}

// Run is the convenience form of Runner.Run.
func Run(workers int, jobs []Job) []Result {
	return (&Runner{Workers: workers}).Run(jobs)
}

// Run executes every job and returns their results indexed by
// submission order. It returns only after every worker goroutine has
// exited, so a completed Run leaves no goroutines behind.
func (r *Runner) Run(jobs []Job) []Result {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]Result, len(jobs))

	if workers <= 1 {
		for i := range jobs {
			results[i] = runOne(&jobs[i])
		}
		return results
	}

	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runOne(&jobs[i])
			}
		}()
	}
	for _, i := range dispatchOrder(jobs) {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// dispatchOrder is the order workers pick jobs up in: submission order,
// unless Cost hints are present, in which case costlier jobs start
// first so a long job is not left to straggle at the end of the batch.
// Only scheduling is affected; results always merge by submission index.
func dispatchOrder(jobs []Job) []int {
	order := make([]int, len(jobs))
	hinted := false
	for i := range jobs {
		order[i] = i
		if jobs[i].Cost != 0 {
			hinted = true
		}
	}
	if hinted {
		sort.SliceStable(order, func(a, b int) bool {
			return jobs[order[a]].Cost > jobs[order[b]].Cost
		})
	}
	return order
}

// runOne executes a single job with the measurement bracket and panic
// barrier.
func runOne(j *Job) (res Result) {
	res.Name = j.Name
	start := time.Now()
	defer func() {
		res.Wall = time.Since(start)
		if p := recover(); p != nil {
			res.Value = nil
			res.Err = fmt.Errorf("parexp: job %q panicked: %v\n%s", j.Name, p, debug.Stack())
		}
	}()
	res.Value, res.Err = j.Run()
	return res
}

// FirstErr returns the first failed job's error in canonical order,
// wrapped with the job's name, or nil if every job succeeded.
func FirstErr(results []Result) error {
	for i := range results {
		if results[i].Err != nil {
			return fmt.Errorf("%s: %w", results[i].Name, results[i].Err)
		}
	}
	return nil
}
