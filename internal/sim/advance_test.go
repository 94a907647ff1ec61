package sim

import (
	"fmt"
	"testing"
	"time"
)

// queuedFires counts the events that went through the queue and were
// fired or cancelled: every recycle bumps a node's generation from its
// initial 1. Valid once the queue is empty (all nodes on the free list).
func queuedFires(e *Engine) uint64 {
	var n uint64
	for x := e.freeList; x != nil; x = x.free {
		n += x.gen - 1
	}
	return n
}

// A lone sleeping proc is always the next event: every wakeup is
// elided, yet each still counts in Events() and moves the clock.
func TestElidedSleepCountsInEvents(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	const n = 100
	e.Go("p", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Duration(i % 3))
			p.SleepUntil(p.Now() + 2)
		}
	})
	e.Run()
	if e.Now() != Time(n*3-1) { // Σ i%3 over i<100 is 99, plus 2 per iteration
		t.Fatalf("clock %v, want %v", e.Now(), Time(n*3-1))
	}
	if e.Events() != 2*n+1 {
		t.Fatalf("Events() = %d, want %d (spawn + every sleep)", e.Events(), 2*n+1)
	}
	if q := queuedFires(e); q != 1 {
		t.Fatalf("%d events went through the queue, want 1 (the spawn)", q)
	}
}

// An event queued at exactly the wakeup instant was scheduled earlier,
// so it has the lower sequence number and must run first: the tie is
// not elided.
func TestSleepTieNotElided(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	var log []string
	e.At(100, func() { log = append(log, fmt.Sprintf("event@%d", e.Now())) })
	e.Go("p", func(p *Proc) {
		p.Sleep(100)
		log = append(log, fmt.Sprintf("proc@%d", p.Now()))
		p.SleepUntil(150) // queue empty again: elided
		log = append(log, fmt.Sprintf("proc@%d", p.Now()))
	})
	e.Run()
	want := "[event@100 proc@100 proc@150]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("log %s, want %s", got, want)
	}
	if e.Events() != 4 || queuedFires(e) != 3 {
		t.Fatalf("Events() = %d, queued %d; want 4, 3", e.Events(), queuedFires(e))
	}
}

// A wakeup past the RunUntil horizon is not taken: the proc stays
// asleep, the clock stops at the horizon, and the next run wakes it on
// time.
func TestSleepPastHorizonStaysAsleep(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	var woke []Time
	e.Go("p", func(p *Proc) {
		p.Sleep(30) // within the horizon: elided
		woke = append(woke, p.Now())
		p.Sleep(40) // past it
		woke = append(woke, p.Now())
	})
	if now := e.RunUntil(50); now != 50 {
		t.Fatalf("RunUntil(50) = %v", now)
	}
	if len(woke) != 1 || woke[0] != 30 || e.Pending() != 1 {
		t.Fatalf("at the horizon: woke %v, pending %d; want [30], 1", woke, e.Pending())
	}
	e.Run()
	if len(woke) != 2 || woke[1] != 70 {
		t.Fatalf("woke %v, want [30 70]", woke)
	}
}

// Each RunUntil 1000 ns ahead wakes the spinner once through the
// queue; its next 999 sleeps are elided and the one past the horizon
// parks it again.
func TestSleepElidedZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	e.Go("spin", func(p *Proc) {
		for {
			p.Sleep(time.Nanosecond)
		}
	})
	e.RunUntil(e.Now() + 1000)
	allocs := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 1000) })
	if allocs != 0 {
		t.Errorf("999 elided sleeps = %.1f allocs, want 0", allocs)
	}
}

// How sleepProgram runs its activities.
const (
	asProcs = iota // procs
	asConts        // continuations sleeping through WakeAt
	asRuns         // continuations taking each run of elidable sleeps with one Elide
)

// Elidable is a time before now outside Run, the horizon within
// RunUntil, and one before the earliest live event while a callback
// runs: not the fired root's instant, which is dead (top), but its
// children's. Elide panics past it.
func TestElidable(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	if lim := e.Elidable(); lim >= e.Now() {
		t.Errorf("outside Run: Elidable = %v, want before now %v", lim, e.Now())
	}
	var got []Time
	e.AtCall(10, func(any) {
		got = append(got, e.Elidable()) // the root at 10 is dead; 30 and 20 are queued
		e.AtCall(15, func(any) { got = append(got, e.Elidable()) }, nil)
		got = append(got, e.Elidable())
	}, nil)
	e.AtCall(30, func(any) {}, nil)
	e.AtCall(20, func(any) {
		got = append(got, e.Elidable()) // only the event at 30 is left, past the horizon
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Elide past Elidable did not panic")
				}
			}()
			e.Elide(26, 1)
		}()
	}, nil)
	e.RunUntil(25)
	want := []Time{19, 14, 19, 25}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Elidable = %v, want %v", got, want)
	}
	if e.Now() != 25 || e.Events() != 3 {
		t.Errorf("after RunUntil(25): now %v, %d events; want 25, 3", e.Now(), e.Events())
	}
}

// Elide(t, n) leaves the clock, the event count and the sequence
// counter where n elided WakeAt sleeps ending at t leave them.
func TestElideEqualsSleeps(t *testing.T) {
	run := func(bulk bool) (Time, uint64, uint64) {
		e := NewEngine(1)
		defer e.Shutdown()
		var k Cont
		k = Cont{Fn: func(any) {
			if bulk {
				e.Elide(e.Now()+12, 3)
				return
			}
			for _, d := range []Time{4, 0, 8} {
				if !e.WakeAt(e.Now()+d, k) {
					t.Fatal("a sleep was not elided")
				}
			}
		}}
		e.AtCall(5, k.Fn, nil)
		e.AtCall(18, func(any) {}, nil) // due just after the sleeps
		e.Run()
		return e.Now(), e.Events(), e.seq
	}
	n1, ev1, seq1 := run(false)
	n2, ev2, seq2 := run(true)
	if n1 != n2 || ev1 != ev2 || seq1 != seq2 {
		t.Errorf("sleeps: now %v, %d events, seq %d; Elide: now %v, %d events, seq %d", n1, ev1, seq1, n2, ev2, seq2)
	}
}

// sleepProgram runs a multi-activity program decoded from data and
// returns its execution trace — (activity, time) after every operation,
// plain events as they fire, and the clock whenever Run or RunUntil
// returns with work left — and the engine's event count. The program's
// activities are procs or, with mode asConts or asRuns,
// continuation-driven state machines (sleepScript) running the same
// operations. With blocker set, an extra proc sleeps 1 ns at a time
// until the program's activities finish, so a wakeup is pending at
// every nanosecond and no positive sleep of the program can be elided.
//
// data[0] picks the number of activities and data[1] the RunUntil step
// (0: one Run); every further byte is one operation of activity
// i%procs: a sleep, a SleepUntil around now, or a plain event scheduled
// ahead.
func sleepProgram(data []byte, blocker bool, mode int) (trace []string, events uint64) {
	e := NewEngine(1)
	defer e.Shutdown()
	procs := 1 + int(data[0]%4)
	step := Time(data[1] % 16)
	ops := make([][]byte, procs)
	for i, b := range data[2:] {
		ops[i%procs] = append(ops[i%procs], b)
	}
	live, plain := procs, 0 // program activities running, plain events pending
	// wake returns the instant operation b sleeps until when made at
	// now (ok false: b is no sleep).
	wake := func(b byte, now Time) (t Time, ok bool) {
		arg := Time(b & 31)
		switch b >> 5 {
		case 0, 1, 2, 3:
			return now + arg%8, true
		case 4:
			return now + arg%11 - 3, true
		case 6, 7:
			return now + arg, true
		}
		return 0, false
	}
	// sleepOp performs operation b of activity i, at index j; for a
	// sleep it returns the wakeup instant (ok false: no sleep).
	sleepOp := func(i, j int, b byte) (t Time, ok bool) {
		if t, ok := wake(b, e.Now()); ok {
			return t, true
		}
		plain++
		e.AfterCall(time.Duration(b&31%8), func(any) {
			plain--
			trace = append(trace, fmt.Sprintf("ev%d.%d@%d", i, j, e.Now()))
		}, nil)
		return 0, false
	}
	for i := range ops {
		if mode != asProcs {
			s := &sleepScript{e: e, ops: ops[i], op: func(j int, b byte) (Time, bool) { return sleepOp(i, j, b) }}
			if mode == asRuns {
				s.wake = wake
			}
			s.k = Cont{Fn: func(any) { s.run() }}
			s.post = func(j int, at Time) { trace = append(trace, fmt.Sprintf("p%d@%d", i, at)) }
			s.done = func() { live-- }
			e.AtCall(e.Now(), s.k.Fn, nil)
			continue
		}
		e.Go("p", func(p *Proc) {
			defer func() { live-- }()
			for j, b := range ops[i] {
				if t, ok := sleepOp(i, j, b); ok {
					p.SleepUntil(t)
				}
				trace = append(trace, fmt.Sprintf("p%d@%d", i, p.Now()))
			}
		})
	}
	var base uint64
	if blocker {
		e.Go("blocker", func(p *Proc) {
			for live > 0 {
				p.Sleep(time.Nanosecond)
				base++
			}
		})
		base++ // its start
	}
	for e.Pending() > 0 {
		if step == 0 {
			e.Run()
		} else {
			e.RunUntil(e.Now() + step)
		}
		if live > 0 || plain > 0 {
			trace = append(trace, fmt.Sprintf("run@%d", e.Now()))
		}
	}
	return trace, e.Events() - base
}

// sleepScript runs a sleepProgram activity as a continuation: a
// trampoline over its operations that returns to the engine only when
// WakeAt had to schedule its wakeup. With wake set it takes each run
// of consecutive sleeps that all end by Elidable with one Elide.
type sleepScript struct {
	e        *Engine
	k        Cont
	ops      []byte
	j        int
	sleeping bool
	op       func(j int, b byte) (Time, bool)
	wake     func(b byte, now Time) (Time, bool)
	post     func(j int, at Time)
	done     func()
}

func (s *sleepScript) run() {
	for s.j < len(s.ops) {
		if !s.sleeping {
			if s.wake != nil && s.elideRun() {
				continue
			}
			if t, ok := s.op(s.j, s.ops[s.j]); ok && !s.e.WakeAt(t, s.k) {
				s.sleeping = true
				return
			}
		}
		s.sleeping = false
		s.post(s.j, s.e.Now())
		s.j++
	}
	s.done()
}

// elideRun takes the sleeps from operation j on in place while each
// ends by Elidable, with one Elide, and reports whether there were
// any. A sleep into the past ends now, as WakeAt's does.
func (s *sleepScript) elideRun() bool {
	lim := s.e.Elidable()
	t, n := s.e.Now(), 0
	for ; s.j+n < len(s.ops); n++ {
		w, ok := s.wake(s.ops[s.j+n], t)
		if !ok || max(t, w) > lim {
			break
		}
		t = max(t, w)
		s.post(s.j+n, t)
	}
	if n == 0 {
		return false
	}
	s.e.Elide(t, n)
	s.j += n
	return true
}

// FuzzSleepElision is the oracle for direct time advance: a program's
// execution trace and event count are the same whether its sleeps are
// elided or, beside a blocker, all go through the queue.
func FuzzSleepElision(f *testing.F) {
	addSleepSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) { checkElision(t, data, asProcs) })
}

// FuzzContSleepElision extends FuzzSleepElision to continuation
// sleeps: the program run as continuations, eliding through WakeAt's
// trampoline, traces and counts exactly as the proc program does with
// every sleep queued.
func FuzzContSleepElision(f *testing.F) {
	addSleepSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) { checkElision(t, data, asConts) })
}

// FuzzBulkElision is the oracle for Elidable and Elide: continuations
// that take each run of sleeps ending by Elidable with one Elide trace
// and count exactly as the proc program does with every sleep queued.
// The trace orders the events that tie with later sleeps, so it also
// pins the sequence stamps an Elide leaves behind.
func FuzzBulkElision(f *testing.F) {
	addSleepSeeds(f)
	f.Add([]byte{0, 7, 0x01, 0x02, 0x00, 0x83, 0x07, 0xa1, 0x05, 0x06, 0x04, 0x01})
	f.Add([]byte{1, 3, 0x05, 0x02, 0xa3, 0x01, 0x07, 0x06, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) { checkElision(t, data, asRuns) })
}

// checkElision compares the program run in mode, eliding, with the
// proc program beside a blocker, which elides no positive sleep.
func checkElision(t *testing.T, data []byte, mode int) {
	if len(data) < 2 || len(data) > 66 {
		return
	}
	got, gotEvents := sleepProgram(data, false, mode)
	want, wantEvents := sleepProgram(data, true, asProcs)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("eliding trace\n%v\nqueued proc trace\n%v", got, want)
	}
	if gotEvents != wantEvents {
		t.Fatalf("Events() = %d eliding, %d queued proc", gotEvents, wantEvents)
	}
}

func addSleepSeeds(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3})
	f.Add([]byte{1, 0, 1, 1, 0xa0, 0x81, 2, 0xe5})
	f.Add([]byte{3, 5, 0x03, 0x85, 0xa2, 0xc0, 0x07, 0x90, 0xf1, 0x00, 0xa0, 0x26})
	f.Add([]byte{2, 1, 0xc0, 0xc0, 0x1f, 0x9f, 0xa7, 0x61})
}
