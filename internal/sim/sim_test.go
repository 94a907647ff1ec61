package sim

import (
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != 0 {
		t.Fatalf("new engine clock = %v, want 0", e.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.At(12345, func() { at = e.Now() })
	end := e.Run()
	if at != 12345 {
		t.Errorf("event saw clock %v, want 12345", at)
	}
	if end != 12345 {
		t.Errorf("Run returned %v, want 12345", end)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.At(1000, func() {
		e.AfterCall(500*time.Nanosecond, func(any) { at = e.Now() }, nil)
	})
	e.Run()
	if at != 1500 {
		t.Errorf("AfterCall event fired at %v, want 1500", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(100, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if ev.Pending() {
		t.Error("Pending() = true after Cancel")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(200, func() { fired = true })
	e.At(100, func() { e.Cancel(ev) })
	e.Run()
	if fired {
		t.Error("event cancelled at t=100 still fired at t=200")
	}
}

func TestCancelFiredEventIsNoop(t *testing.T) {
	e := NewEngine(1)
	ev := e.At(10, func() {})
	e.Run()
	e.Cancel(ev) // must not panic
	if ev.Pending() || e.Pending() != 0 {
		t.Error("fired event reported as pending")
	}
}

func TestRunUntilLeavesLaterEventsQueued(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.At(100, func() { fired = append(fired, e.Now()) })
	e.At(300, func() { fired = append(fired, e.Now()) })
	got := e.RunUntil(200)
	if got != 200 {
		t.Errorf("RunUntil returned %v, want 200", got)
	}
	if len(fired) != 1 || fired[0] != 100 {
		t.Errorf("fired = %v, want [100]", fired)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if len(fired) != 2 || fired[1] != 300 {
		t.Errorf("after full Run fired = %v, want [100 300]", fired)
	}
}

// TestRunForAdvancesClockEvenWithoutEvents: running for 5 µs with
// RunUntil moves the clock there with nothing queued.
func TestRunForAdvancesClockEvenWithoutEvents(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(Time(5 * time.Microsecond))
	if e.Now() != Time(5*time.Microsecond) {
		t.Errorf("clock = %v, want 5µs", e.Now())
	}
}

func TestTimeArithmetic(t *testing.T) {
	var tm Time = 1500
	if tm.Add(500*time.Nanosecond) != 2000 {
		t.Error("Add wrong")
	}
	if Time(2e9).Seconds() != 2.0 {
		t.Error("Seconds wrong")
	}
	if Time(2500).Microseconds() != 2.5 {
		t.Error("Microseconds wrong")
	}
}

// TestDeterministicRand: the engine's only randomness is DeriveRand,
// and a derived stream is a function of (seed, site) alone — the same
// pair reproduces it, and changing either one gives a different stream.
func TestDeterministicRand(t *testing.T) {
	first := func(seed int64, site string) [4]int64 {
		r := NewEngine(seed).DeriveRand(site)
		var v [4]int64
		for i := range v {
			v[i] = r.Int63()
		}
		return v
	}
	a := first(42, "skew/x/l0")
	if b := first(42, "skew/x/l0"); a != b {
		t.Error("same seed and site produced different streams")
	}
	if c := first(43, "skew/x/l0"); a == c {
		t.Error("different seeds produced the same stream")
	}
	if d := first(42, "skew/x/l1"); a == d {
		t.Error("different sites produced the same stream")
	}
	// Sites are independent of derivation order on one engine.
	e := NewEngine(42)
	e.DeriveRand("skew/x/l1")
	r := e.DeriveRand("skew/x/l0")
	for i, want := range a {
		if got := r.Int63(); got != want {
			t.Fatalf("draw %d after deriving another site first: %d, want %d", i, got, want)
		}
	}
}

func TestTracer(t *testing.T) {
	e := NewEngine(1)
	var got []TraceEvent
	e.SetRecorder(func(ev TraceEvent) { got = append(got, ev) })
	want := TraceEvent{At: 10, Ph: 'i', Comp: "b-rx", Cat: CatIRQ, Name: "rx-irq", Arg: 2}
	e.At(10, func() { e.Emit(want) })
	e.Run()
	if len(got) != 1 || got[0] != want {
		t.Errorf("recorder got %+v, want [%+v]", got, want)
	}
	e.SetRecorder(nil)
	e.Emit(want) // must not panic
}

func TestNestedScheduling(t *testing.T) {
	// An event that schedules more events at the same time: they run
	// after previously scheduled same-time events.
	e := NewEngine(1)
	var order []string
	e.At(10, func() {
		order = append(order, "a")
		e.At(10, func() { order = append(order, "c") })
	})
	e.At(10, func() { order = append(order, "b") })
	e.Run()
	want := "abc"
	var s string
	for _, x := range order {
		s += x
	}
	if s != want {
		t.Errorf("order = %q, want %q", s, want)
	}
}

func TestCancelInsideCallback(t *testing.T) {
	// An event callback cancelling another pending event (the RDP timer
	// pattern) must be safe even when both fire at the same instant.
	e := NewEngine(1)
	var b Event
	bFired := false
	e.At(100, func() { e.Cancel(b) })
	b = e.At(100, func() { bFired = true })
	e.Run()
	if bFired {
		t.Error("same-instant cancelled event still fired")
	}
}

func TestCancelSelfIsNoop(t *testing.T) {
	e := NewEngine(1)
	var self Event
	ran := false
	self = e.At(10, func() {
		ran = true
		e.Cancel(self) // already firing: the handle is stale, must be a no-op
	})
	e.Run()
	if !ran {
		t.Error("event did not run")
	}
}

func TestRunUntilZeroHorizonRunsNothing(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(10, func() { fired = true })
	e.RunUntil(5)
	if fired {
		t.Error("event beyond horizon fired")
	}
	if e.Now() != 5 {
		t.Errorf("clock = %v, want 5", e.Now())
	}
	e.Run()
	if !fired {
		t.Error("event lost after horizon run")
	}
}

// TestInjectStampedCanonicalOrder: events carrying explicit stamps
// merge into the queue in (at, schedAt, xid, seq) order, with locally
// scheduled events (xid 0) winning ties against injected ones.
func TestInjectStampedCanonicalOrder(t *testing.T) {
	e := NewEngine(1)
	var got []string
	rec := func(a any) { got = append(got, a.(string)) }

	const at = Time(100)
	// Local events: schedAt = 0 (scheduled now), xid = 0.
	e.AtCall(at, rec, "local-1")
	e.AtCall(at, rec, "local-2")
	// Injected: later schedAt sorts last regardless of xid; equal
	// schedAt sorts by xid, then per-xid seq.
	e.InjectStamped(at, 50, 1, 7, rec, "x1-late")
	e.InjectStamped(at, 0, 2, 1, rec, "x2-a")
	e.InjectStamped(at, 0, 1, 3, rec, "x1-b")
	e.InjectStamped(at, 0, 1, 2, rec, "x1-a")
	e.Run()

	want := []string{"local-1", "local-2", "x1-a", "x1-b", "x2-a", "x1-late"}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
}

func TestInjectStampedValidation(t *testing.T) {
	e := NewEngine(1)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero xid", func() { e.InjectStamped(10, 0, 0, 1, func(any) {}, nil) })
	e.At(5, func() {})
	e.Run()
	mustPanic("past injection", func() { e.InjectStamped(1, 0, 1, 1, func(any) {}, nil) })
}

// TestSingleEngineOrderUnchanged: for events scheduled through At the
// canonical comparator must reproduce plain (at, seq) order exactly.
func TestSingleEngineOrderUnchanged(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(50*(i%3)), func() { got = append(got, i) })
	}
	e.Run()
	// Same fire time ⇒ scheduling order; times 0, 50, 100 interleaved.
	want := []int{0, 3, 6, 9, 1, 4, 7, 2, 5, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestDuplicateDeriveSitePanics: two components deriving the same site
// would silently share one pseudo-random stream, so the second
// derivation panics.
func TestDuplicateDeriveSitePanics(t *testing.T) {
	e := NewEngine(1)
	e.DeriveRand("injector/x")
	e.DeriveRand("injector/y")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate DeriveRand site did not panic")
		}
	}()
	e.DeriveRand("injector/x")
}

// TestCallbackPanicLeavesQueueConsistent: a callback that panics before
// scheduling anything leaves its fired event at the heap root; Run's
// unwinding removes it, so the engine carries on with the rest.
func TestCallbackPanicLeavesQueueConsistent(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	e.At(1, func() { panic("boom") })
	e.At(2, func() { got = append(got, e.Now()) })
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		e.Run()
	}()
	if e.Pending() != 1 || e.Events() != 1 {
		t.Fatalf("after the panic: pending %d, events %d; want 1, 1", e.Pending(), e.Events())
	}
	e.Run()
	if len(got) != 1 || got[0] != 2 || e.Pending() != 0 {
		t.Fatalf("fired at %v, pending %d; want [2ns], 0", got, e.Pending())
	}
}

// TestRunUntilPanicRestoresHorizon: a callback that panics out of a
// RunUntil leaves no horizon behind, so a later Run runs every event.
func TestRunUntilPanicRestoresHorizon(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(10, func() { panic("halt") })
	e.At(200, func() { fired = true })
	func() {
		defer func() {
			if r := recover(); r != "halt" {
				t.Fatalf("recovered %v, want halt", r)
			}
		}()
		e.RunUntil(100)
	}()
	e.Run()
	if !fired || e.Now() != 200 || e.Pending() != 0 {
		t.Fatalf("after Run: fired %v, now %v, pending %d; want true, 200ns, 0", fired, e.Now(), e.Pending())
	}
}
