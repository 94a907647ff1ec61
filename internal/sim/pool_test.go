package sim

import (
	"testing"
)

// --- Pooled-event handle semantics ---

// A handle to a fired event must stay inert even after its storage is
// recycled for a new event: Cancel through the stale handle is a no-op.
func TestCancelStaleHandleDoesNotKillReusedNode(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	stale := e.At(1, func() {})
	e.Run() // fires and recycles the node

	reused := false
	fresh := e.At(2, func() { reused = true })
	if fresh.n != stale.n {
		t.Fatal("free list did not reuse the node; test premise broken")
	}
	e.Cancel(stale) // stale generation: must not touch the new event
	e.Run()
	if !reused {
		t.Fatal("stale Cancel killed a reused event")
	}
}

func TestPendingAndCancelledTrackGenerations(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	ev := e.At(5, func() {})
	if !ev.Pending() {
		t.Fatal("fresh event not pending")
	}
	e.Cancel(ev)
	if ev.Pending() {
		t.Fatal("cancelled event still pending")
	}
	if reused := e.At(6, func() {}); reused.n != ev.n || !reused.Pending() || ev.Pending() {
		t.Fatal("the cancelled event's reused storage revived its stale handle")
	}
	var zero Event
	if zero.Pending() {
		t.Fatal("zero Event must be inert")
	}
}

func TestEventsCountsFiredEvents(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	for i := 1; i <= 5; i++ {
		e.At(Time(i), func() {})
	}
	cancelled := e.At(100, func() {})
	e.Cancel(cancelled)
	e.Run()
	if e.Events() != 5 {
		t.Fatalf("Events() = %d, want 5 (cancelled events don't fire)", e.Events())
	}
}

// --- Steady-state allocation regression pins ---

// Once the free list is warm, scheduling and cancelling must not
// allocate: the node comes from the pool and func/pointer values box
// into `any` without heap allocation.
func TestAtCancelZeroAllocSteadyState(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	ev := e.At(1, func() {})
	e.Cancel(ev) // warm the free list
	allocs := testing.AllocsPerRun(1000, func() {
		ev := e.At(1, func() {})
		e.Cancel(ev)
	})
	if allocs != 0 {
		t.Errorf("At+Cancel allocates %.1f per op, want 0", allocs)
	}
}

func TestAtCallZeroAllocSteadyState(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	sink := 0
	cb := func(a any) { sink += *a.(*int) }
	arg := new(int)
	ev := e.AtCall(1, cb, arg)
	e.Cancel(ev)
	allocs := testing.AllocsPerRun(1000, func() {
		ev := e.AtCall(1, cb, arg)
		e.Cancel(ev)
	})
	if allocs != 0 {
		t.Errorf("AtCall+Cancel allocates %.1f per op, want 0", allocs)
	}
}

// Firing events must recycle nodes rather than leak them: a
// schedule-and-run cycle in steady state performs zero allocations.
func TestScheduleFireZeroAllocSteadyState(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	var tick Time
	next := func() Time { tick++; return tick }
	e.At(next(), func() {})
	e.Run() // warm pool and Run machinery
	allocs := testing.AllocsPerRun(1000, func() {
		e.At(next(), func() {})
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("At+Run allocates %.1f per cycle, want 0", allocs)
	}
}

// A callback's first scheduling takes the fired event's heap slot, and
// a Cancel inside a callback removes below the fired root: neither
// allocates, whether the callback reschedules itself or cancels a
// pending event.
func TestCallbackRescheduleAndCancelZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	hops := new(int)
	var hop func(any)
	hop = func(a any) {
		if n := a.(*int); *n > 0 {
			*n--
			e.AfterCall(1, hop, n)
		}
	}
	reschedule := func() {
		*hops = 8
		e.AfterCall(1, hop, hops)
		e.Run()
	}
	var victim Event
	fired := false
	fire := func(any) { fired = true }
	kill := func(any) { e.Cancel(victim) }
	cancel := func() {
		victim = e.AfterCall(3, fire, nil)
		e.AfterCall(2, kill, nil)
		e.Run()
	}
	for name, cycle := range map[string]func(){"reschedule": reschedule, "cancel": cancel} {
		cycle() // warm the pool
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Errorf("%s: %.1f allocations per cycle, want 0", name, allocs)
		}
	}
	if fired || victim.Pending() || e.Pending() != 0 {
		t.Fatalf("fired=%v victim pending=%v pending=%d after the cycles", fired, victim.Pending(), e.Pending())
	}
}

// The ring-buffer Chan must not allocate on the send/recv fast path.
func TestChanZeroAllocSteadyState(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	c := NewChan[int](e, 8)
	c.TrySend(1)
	c.TryRecv()
	allocs := testing.AllocsPerRun(1000, func() {
		c.TrySend(7)
		c.TryRecv()
	})
	if allocs != 0 {
		t.Errorf("Chan TrySend+TryRecv allocates %.1f per op, want 0", allocs)
	}
}

// --- Event-core micro-benchmarks (exercised by the CI bench smoke) ---

func BenchmarkAtFire(b *testing.B) {
	e := NewEngine(1)
	defer e.Shutdown()
	var tick Time
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tick++
		e.At(tick, func() {})
		e.Run()
	}
}

func BenchmarkAtCancel(b *testing.B) {
	e := NewEngine(1)
	defer e.Shutdown()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Cancel(e.At(1, func() {}))
	}
}

func BenchmarkChanTrySendTryRecv(b *testing.B) {
	e := NewEngine(1)
	defer e.Shutdown()
	c := NewChan[int](e, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.TrySend(i)
		c.TryRecv()
	}
}

// BenchmarkSleepElided measures a sleep whose wakeup is the engine's
// next event: the proc advances the clock itself, with no event and no
// coroutine switch (TestSleepElidedZeroAlloc pins it at 0 allocs).
func BenchmarkSleepElided(b *testing.B) {
	e := NewEngine(1)
	defer e.Shutdown()
	b.ReportAllocs()
	e.Go("spin", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	e.Run()
}
