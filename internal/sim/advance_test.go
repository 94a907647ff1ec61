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

// sleepProgram runs a multi-activity program decoded from data and
// returns its execution trace — (activity, time) after every operation,
// plain events as they fire, and the clock whenever Run or RunUntil
// returns with work left — and the engine's event count. The program's
// activities are procs, or with cont set continuation-driven state
// machines (sleepScript) running the same operations. With blocker
// set, an extra proc sleeps 1 ns at a time until the program's
// activities finish, so a wakeup is pending at every nanosecond and no
// positive sleep of the program can be elided.
//
// data[0] picks the number of activities and data[1] the RunUntil step
// (0: one Run); every further byte is one operation of activity
// i%procs: a sleep, a SleepUntil around now, or a plain event scheduled
// ahead.
func sleepProgram(data []byte, blocker, cont bool) (trace []string, events uint64) {
	e := NewEngine(1)
	defer e.Shutdown()
	procs := 1 + int(data[0]%4)
	step := Time(data[1] % 16)
	ops := make([][]byte, procs)
	for i, b := range data[2:] {
		ops[i%procs] = append(ops[i%procs], b)
	}
	live, plain := procs, 0 // program activities running, plain events pending
	// sleepOp performs operation b of activity i, at index j; for a
	// sleep it returns the wakeup instant (ok false: no sleep).
	sleepOp := func(i, j int, b byte) (t Time, ok bool) {
		arg := int64(b & 31)
		switch b >> 5 {
		case 0, 1, 2, 3:
			return e.Now() + Time(arg%8), true
		case 4:
			return e.Now() + Time(arg%11) - 3, true
		case 5:
			plain++
			e.AfterCall(time.Duration(arg%8), func(any) {
				plain--
				trace = append(trace, fmt.Sprintf("ev%d.%d@%d", i, j, e.Now()))
			}, nil)
		case 6, 7:
			return e.Now() + Time(arg), true
		}
		return 0, false
	}
	for i := range ops {
		if cont {
			s := &sleepScript{e: e, ops: ops[i], op: func(j int, b byte) (Time, bool) { return sleepOp(i, j, b) }}
			s.k = Cont{Fn: func(any) { s.run() }}
			s.post = func(j int) { trace = append(trace, fmt.Sprintf("p%d@%d", i, e.Now())) }
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
// WakeAt had to schedule its wakeup.
type sleepScript struct {
	e        *Engine
	k        Cont
	ops      []byte
	j        int
	sleeping bool
	op       func(j int, b byte) (Time, bool)
	post     func(j int)
	done     func()
}

func (s *sleepScript) run() {
	for ; s.j < len(s.ops); s.j++ {
		if !s.sleeping {
			if t, ok := s.op(s.j, s.ops[s.j]); ok && !s.e.WakeAt(t, s.k) {
				s.sleeping = true
				return
			}
		}
		s.sleeping = false
		s.post(s.j)
	}
	s.done()
}

// FuzzSleepElision is the oracle for direct time advance: a program's
// execution trace and event count are the same whether its sleeps are
// elided or, beside a blocker, all go through the queue.
func FuzzSleepElision(f *testing.F) {
	addSleepSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 66 {
			return
		}
		got, gotEvents := sleepProgram(data, false, false)
		want, wantEvents := sleepProgram(data, true, false)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("elided trace\n%v\nqueued trace\n%v", got, want)
		}
		if gotEvents != wantEvents {
			t.Fatalf("Events() = %d elided, %d queued", gotEvents, wantEvents)
		}
	})
}

// FuzzContSleepElision extends FuzzSleepElision to continuation
// sleeps: the program run as continuations, eliding through WakeAt's
// trampoline, traces and counts exactly as the proc program does with
// every sleep queued.
func FuzzContSleepElision(f *testing.F) {
	addSleepSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 66 {
			return
		}
		got, gotEvents := sleepProgram(data, false, true)
		want, wantEvents := sleepProgram(data, true, false)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("continuation trace\n%v\nqueued proc trace\n%v", got, want)
		}
		if gotEvents != wantEvents {
			t.Fatalf("Events() = %d continuation, %d queued proc", gotEvents, wantEvents)
		}
	})
}

func addSleepSeeds(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3})
	f.Add([]byte{1, 0, 1, 1, 0xa0, 0x81, 2, 0xe5})
	f.Add([]byte{3, 5, 0x03, 0x85, 0xa2, 0xc0, 0x07, 0x90, 0xf1, 0x00, 0xa0, 0x26})
	f.Add([]byte{2, 1, 0xc0, 0xc0, 0x1f, 0x9f, 0xa7, 0x61})
}
