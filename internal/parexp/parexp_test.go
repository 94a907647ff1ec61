package parexp_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hostsim"
	. "repro/internal/parexp"
)

// makeJobs builds n CPU-bound jobs whose values are pure functions of
// their index, adversarially unequal in duration so parallel completion
// order differs from submission order.
func makeJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{
			Name: fmt.Sprintf("job%d", i),
			Run: func() (any, error) {
				// Vary the work so late-submitted jobs often finish first.
				iters := 1000 * ((n - i) % 5 * 7)
				acc := uint64(i)
				for k := 0; k < iters; k++ {
					acc = acc*6364136223846793005 + 1442695040888963407
				}
				return fmt.Sprintf("v%d-%d", i, acc%97), nil
			},
		}
	}
	return jobs
}

func values(results []Result) []any {
	out := make([]any, len(results))
	for i, r := range results {
		out[i] = r.Value
	}
	return out
}

// TestWorkerCountInvariance is the core determinism contract: the
// merged results slice is identical for 1 and 8 workers, in value and
// in order.
func TestWorkerCountInvariance(t *testing.T) {
	jobs := makeJobs(37)
	serial := Run(1, jobs)
	parallel := Run(8, jobs)
	if !reflect.DeepEqual(values(serial), values(parallel)) {
		t.Errorf("results differ between 1 and 8 workers:\n%v\n%v", values(serial), values(parallel))
	}
	for i, r := range parallel {
		if r.Name != jobs[i].Name {
			t.Errorf("slot %d holds %q, want %q", i, r.Name, jobs[i].Name)
		}
	}
}

// TestWorkerCountInvarianceSimulated runs real sim.Engine experiments —
// the actual workload the harness fans out — and demands bit-identical
// simulated outcomes across worker counts.
func TestWorkerCountInvarianceSimulated(t *testing.T) {
	var jobs []Job
	for _, size := range []int{1024, 4096} {
		size := size
		jobs = append(jobs, Job{
			Name: fmt.Sprintf("latency/%d", size),
			Run: func() (any, error) {
				tb := core.NewTestbed(core.Options{Profile: hostsim.DEC3000_600()})
				defer tb.Shutdown()
				d, err := tb.RunLatency(core.UDPIP, size, 2)
				return d, err
			},
		})
	}
	a := Run(1, jobs)
	b := Run(4, jobs)
	if err := FirstErr(a); err != nil {
		t.Fatal(err)
	}
	if err := FirstErr(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(values(a), values(b)) {
		t.Errorf("simulated results differ across worker counts: %v vs %v", values(a), values(b))
	}
}

// TestPanicIsolation: a panicking job yields an error in its own slot;
// every sibling completes normally.
func TestPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		jobs := makeJobs(9)
		jobs[3].Run = func() (any, error) { panic("boom") }
		results := Run(workers, jobs)
		if results[3].Err == nil || !strings.Contains(results[3].Err.Error(), "boom") {
			t.Errorf("workers=%d: panicking job error = %v, want panic message", workers, results[3].Err)
		}
		if !strings.Contains(results[3].Err.Error(), `job "job3"`) {
			t.Errorf("workers=%d: panic error does not name the job: %v", workers, results[3].Err)
		}
		for i, r := range results {
			if i == 3 {
				continue
			}
			if r.Err != nil || r.Value == nil {
				t.Errorf("workers=%d: sibling %d did not complete: value=%v err=%v", workers, i, r.Value, r.Err)
			}
		}
	}
}

// TestNoGoroutineLeak: after Run returns, the pool's goroutines are
// gone.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		Run(8, makeJobs(24))
	}
	// Allow the runtime a moment to reap exited goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Runner completed", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestErrorLandsInSlot(t *testing.T) {
	sentinel := errors.New("configured badly")
	jobs := makeJobs(5)
	jobs[2].Run = func() (any, error) { return nil, sentinel }
	results := Run(4, jobs)
	if !errors.Is(results[2].Err, sentinel) {
		t.Errorf("slot 2 err = %v, want sentinel", results[2].Err)
	}
	err := FirstErr(results)
	if !errors.Is(err, sentinel) || !strings.Contains(err.Error(), "job2") {
		t.Errorf("FirstErr = %v, want sentinel wrapped with job2", err)
	}
	if FirstErr(Run(2, makeJobs(4))) != nil {
		t.Error("FirstErr non-nil on a clean batch")
	}
}

func TestWorkerDefaultsAndClamp(t *testing.T) {
	// Zero and negative worker counts must still run everything.
	for _, w := range []int{0, -3, 100} {
		results := Run(w, makeJobs(6))
		if len(results) != 6 {
			t.Fatalf("workers=%d: %d results, want 6", w, len(results))
		}
		if err := FirstErr(results); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
	}
	// An empty batch is a no-op.
	if got := Run(4, nil); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
}

func TestCostHintSchedulesNotMerges(t *testing.T) {
	jobs := makeJobs(12)
	for i := range jobs {
		jobs[i].Cost = float64(i % 4)
	}
	plain := values(Run(1, jobs))
	hinted := values(Run(4, jobs))
	if !reflect.DeepEqual(plain, hinted) {
		t.Errorf("cost hints changed merged results:\n%v\n%v", plain, hinted)
	}
}

func TestWallAndAllocsRecorded(t *testing.T) {
	jobs := []Job{{Name: "alloc", Run: func() (any, error) {
		buf := make([][]byte, 0, 100)
		for i := 0; i < 100; i++ {
			buf = append(buf, make([]byte, 1024))
		}
		return len(buf), nil
	}}}
	if r := Run(1, jobs)[0]; r.Wall <= 0 {
		t.Error("no wall time recorded")
	}
}
