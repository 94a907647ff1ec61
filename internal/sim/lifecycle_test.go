package sim

import (
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count is back to at most
// before (coroutines are goroutines, so a leaked proc shows here).
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Shutdown", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

func noop(*Proc) {}

// A proc spawned but never started must not run its body at Shutdown,
// and its coroutine must be reaped, whether it was fresh or pooled.
func TestShutdownBeforeRunRunsNoBody(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		e := NewEngine(1)
		e.Go("warm", noop)
		e.Run() // leaves one idle pooled worker
		ran := 0
		for j := 0; j < 4; j++ {
			e.Go("never", func(p *Proc) {
				ran++
				e.Go("grandchild", noop)
				p.Sleep(time.Microsecond)
			})
		}
		pending := e.Pending()
		e.Shutdown()
		if ran != 0 {
			t.Fatalf("Shutdown ran %d unstarted bodies", ran)
		}
		if e.Pending() != pending {
			t.Fatalf("Shutdown scheduled events: pending %d → %d", pending, e.Pending())
		}
		e.Run() // the start events fire on dead procs: no-ops
		if ran != 0 {
			t.Fatalf("Run after Shutdown started %d killed procs", ran)
		}
	}
	waitGoroutines(t, before)
}

// Short-lived procs reuse parked coroutines: the engine's worker set is
// bounded by the peak number of live procs, not the number spawned.
func TestWorkerSetBoundedByPeakLiveProcs(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	const spawns = 10000
	live, peak, done := 0, 0, 0
	child := func(p *Proc) {
		p.Sleep(3 * time.Microsecond)
		live--
		done++
	}
	e.Go("gen", func(p *Proc) {
		for i := 0; i < spawns; i++ {
			e.Go("child", child)
			live++
			if live > peak {
				peak = live
			}
			p.Sleep(time.Microsecond)
		}
	})
	e.Run()
	if done != spawns {
		t.Fatalf("%d of %d children finished", done, spawns)
	}
	if max := peak + 1; len(e.workers) > max { // +1: the generator
		t.Fatalf("%d workers for %d spawns, want ≤ %d (peak live procs)", len(e.workers), spawns, max)
	}
	if len(e.idle) != len(e.workers) {
		t.Fatalf("%d of %d workers idle after quiesce", len(e.idle), len(e.workers))
	}
}

// A panicking body is re-raised on the goroutine running the engine,
// and the worker that ran it goes back to the pool for the next proc.
func TestPanicReraisedAndWorkerReused(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	e.Go("bad", func(p *Proc) {
		p.Sleep(time.Nanosecond)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		e.Run()
	}()
	if len(e.workers) != 1 || len(e.idle) != 1 {
		t.Fatalf("after panic: %d workers, %d idle; want 1, 1", len(e.workers), len(e.idle))
	}
	var woke Time
	e.Go("good", func(p *Proc) {
		p.Sleep(time.Microsecond)
		woke = p.Now()
	})
	e.Run()
	if woke != Time(time.Microsecond+time.Nanosecond) {
		t.Fatalf("reused worker woke at %v", woke)
	}
	if len(e.workers) != 1 {
		t.Fatalf("%d workers, want the panicked one reused", len(e.workers))
	}
}

// runtime.Goexit in a body (t.FailNow and t.SkipNow call it) ends the
// goroutine driving the engine, exactly as if it were called there.
func TestGoexitInBodyEndsEngineGoroutine(t *testing.T) {
	e := NewEngine(1)
	var p *Proc
	p = e.Go("exit", func(p *Proc) {
		p.Sleep(time.Nanosecond)
		runtime.Goexit()
	})
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run()
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned after the body called runtime.Goexit")
	}
	if !p.Done() {
		t.Fatal("proc not Done after Goexit")
	}
	// The engine is reusable: the dead worker is never pooled.
	ran := false
	e.Go("next", func(*Proc) { ran = true })
	e.Run()
	e.Shutdown()
	if !ran || len(e.workers) != 0 {
		t.Fatalf("after Goexit: ran=%v workers=%d", ran, len(e.workers))
	}
}

func TestSkipNowInBodySkipsTest(t *testing.T) {
	reached := false
	t.Run("skip", func(t *testing.T) {
		e := NewEngine(1)
		defer e.Shutdown()
		e.Go("p", func(p *Proc) {
			p.Sleep(time.Nanosecond)
			t.SkipNow()
		})
		e.Run()
		reached = true
	})
	if reached {
		t.Fatal("test body continued after SkipNow in a proc")
	}
}

// A proc killed at Shutdown unwinds through its deferred calls; a
// deferred call that blocks is cut short at that blocking call.
func TestKillDuringDeferredSleep(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(1)
	cond := NewCond(e)
	var log []string
	p := e.Go("stuck", func(p *Proc) {
		defer func() { log = append(log, "outer defer") }()
		defer func() {
			log = append(log, "defer start")
			p.Sleep(time.Microsecond)
			log = append(log, "after deferred sleep")
		}()
		cond.Wait(p) // never signalled
		log = append(log, "after wait")
	})
	e.Run()
	e.Shutdown()
	want := []string{"defer start", "outer defer"}
	if len(log) != len(want) || log[0] != want[0] || log[1] != want[1] {
		t.Fatalf("log = %v, want %v", log, want)
	}
	if !p.Done() {
		t.Fatal("killed proc not Done")
	}
	e.Run() // the deferred Sleep's wakeup fires on a dead proc
	if len(log) != 2 {
		t.Fatalf("dead proc resumed: %v", log)
	}
	waitGoroutines(t, before)
}

func TestProcSwitchAllocs(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	e.Go("spin", func(p *Proc) {
		for {
			p.Sleep(time.Nanosecond)
		}
	})
	e.RunUntil(e.Now() + 1)
	allocs := testing.AllocsPerRun(1000, func() { e.RunUntil(e.Now() + 1) })
	if allocs != 0 {
		t.Errorf("proc switch = %.1f allocs, want 0", allocs)
	}
}

func TestProcSpawnAllocs(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	e.Go("warm", noop)
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.Go("short", noop)
		e.Run()
	})
	if allocs > 1 {
		t.Errorf("pooled spawn = %.1f allocs, want ≤1 (the Proc)", allocs)
	}
	if len(e.workers) != 1 {
		t.Errorf("%d workers after 1001 sequential spawns, want 1", len(e.workers))
	}
}

// BenchmarkProcSwitch measures one sleep/wake round trip of a proc: a
// switch into the body and a switch back to the engine. Two procs sleep
// 1 ns in lockstep, so each wakeup ties with the other proc's and none
// can be elided (a lone sleeper would measure BenchmarkSleepElided).
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine(1)
	defer e.Shutdown()
	for j := 0; j < 2; j++ {
		e.Go("spin", func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				p.Sleep(time.Nanosecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcSpawn measures spawning and running a body that returns
// at once, with the coroutine pool warm.
func BenchmarkProcSpawn(b *testing.B) {
	e := NewEngine(1)
	defer e.Shutdown()
	e.Go("warm", noop)
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Go("short", noop)
		e.Run()
	}
}
