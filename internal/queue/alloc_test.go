package queue

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/dpm"
	"repro/internal/hostsim"
	"repro/internal/sim"
)

// Ring push/pop rides the simulated bus (timed port accesses), so its
// allocation behavior depends on the event core: with pooled events a
// warm steady state must be allocation-free.
func TestRingPushPopSteadyStateAllocs(t *testing.T) {
	e, d := newRig()
	defer e.Shutdown()
	r := NewRing(d, 0, 8)
	var allocs uint64
	e.Go("host", func(p *sim.Proc) {
		r.Init(p, dpm.Host)
		d := Desc{Addr: 0x1000, Len: 44}
		for i := 0; i < 16; i++ { // warm the event pool
			r.TryPush(p, dpm.Host, d)
			r.TryPop(p, dpm.Board)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const ops = 1000
		for i := 0; i < ops; i++ {
			if !r.TryPush(p, dpm.Host, d) {
				t.Error("push failed")
				return
			}
			if _, ok := r.TryPop(p, dpm.Board); !ok {
				t.Error("pop failed")
				return
			}
		}
		runtime.ReadMemStats(&after)
		allocs = after.Mallocs - before.Mallocs
	})
	e.Run()
	if allocs > 16 {
		t.Errorf("%d push/pop pairs allocated %d objects, want ≤ 16", 1000, allocs)
	}
}

// The proc forms that await an operation from a pooled record —
// Compute, WirePages, TryPush, TryPop and ObserveTail — allocate
// nothing in steady state, also when they wait: two procs run them at
// once on the serialized DECstation, contending for its CPU and bus.
func TestAwaitedOpsAllocateNothing(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	h := hostsim.New(e, hostsim.DEC5000_200(), 64)
	d := dpm.New(e, h.Bus)
	kick := sim.NewChan[struct{}](e, 2)
	for i := 0; i < 2; i++ {
		r := NewRing(d, uint32(i*BytesFor(8)), 8)
		e.Go("host", func(p *sim.Proc) {
			for {
				kick.Recv(p)
				h.Compute(p, 5*time.Microsecond)
				h.WirePages(p, 1, false)
				r.TryPush(p, dpm.Host, Desc{Addr: 0x1000, Len: 44})
				r.TryPop(p, dpm.Host)
				r.ObserveTail(p, dpm.Host)
			}
		})
	}
	run := func() {
		kick.TrySend(struct{}{})
		kick.TrySend(struct{}{})
		e.Run()
	}
	run() // warm-up: fills the event and record pools
	r0 := e.Resumes()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("awaited ops = %.1f allocs per round, want 0", allocs)
	}
	// Each round resumes each proc out of Recv and out of the waits
	// the other proc's CPU and bus work forces on it.
	if per := float64(e.Resumes()-r0) / 101; per < 4 {
		t.Errorf("%.1f resumes per round: the ops did not wait", per)
	}
}
