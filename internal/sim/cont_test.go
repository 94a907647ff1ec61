package sim

import (
	"fmt"
	"testing"
	"time"
)

// waiterProgram runs activities over one Cond, one Resource and one
// Chan, decoded from data: data[0] picks the number of activities,
// and every further byte is one operation of activity i%n. Activity i
// runs as a proc when bit i of mask is clear and as a continuation
// (waiterScript) when it is set, so procs and callbacks interleave in
// every waiter queue. It returns the log of every finished operation —
// activity, instant, the engine's sequence counter and event count —
// and the final event count.
func waiterProgram(data []byte, mask uint) (log []string, events uint64) {
	e := NewEngine(1)
	defer e.Shutdown()
	n := 1 + int(data[0]%6)
	ops := make([][]byte, n)
	for i, b := range data[1:] {
		ops[i%n] = append(ops[i%n], b)
	}
	w := &waiterWorld{e: e, c: NewCond(e), r: NewResource(e, "r"), ch: NewChan[int](e, 2)}
	for i := range ops {
		note := func(j int) { log = append(log, fmt.Sprintf("a%d.%d@%d s%d f%d", i, j, e.Now(), e.seq, e.fired)) }
		if mask&(1<<i) != 0 {
			s := &waiterScript{w: w, ops: ops[i], note: note}
			s.k = Cont{Fn: func(a any) { a.(*waiterScript).run() }, Arg: s}
			e.AtCall(e.Now(), s.k.Fn, s) // a proc's start slot
			continue
		}
		e.Go("a", func(p *Proc) {
			for j, b := range ops[i] {
				switch d := time.Duration(b>>3) % 5; b & 7 {
				case 0:
					w.r.Use(p, d)
				case 1:
					w.c.Wait(p)
				case 2:
					w.c.Signal()
				case 3:
					w.c.Broadcast()
				case 4:
					w.ch.Send(p, j)
				case 5:
					w.ch.Recv(p)
				case 6, 7:
					p.Sleep(d)
				}
				note(j)
			}
		})
	}
	e.Run()
	return log, e.Events()
}

type waiterWorld struct {
	e  *Engine
	c  *Cond
	r  *Resource
	ch *Chan[int]
}

// waiterScript is a waiterProgram activity as a continuation: the same
// operations through the continuation forms, resumed by k.
type waiterScript struct {
	w    *waiterWorld
	k    Cont
	ops  []byte
	j    int
	busy bool // the operation at j has started
	h    Hold
	note func(j int)
}

func (s *waiterScript) run() {
	w := s.w
	for ; s.j < len(s.ops); s.j++ {
		b := s.ops[s.j]
		switch d := time.Duration(b>>3) % 5; b & 7 {
		case 0, 6, 7:
			if !s.busy {
				s.h = w.e.Delay(d)
				if b&7 == 0 {
					s.h = w.r.Hold(d)
				}
				s.busy = true
			}
			if !s.h.Step(s.k) {
				return
			}
		case 1:
			if !s.busy {
				s.busy = true
				w.c.WaitCont(s.k)
				return
			}
		case 2:
			w.c.Signal()
		case 3:
			w.c.Broadcast()
		case 4:
			if !w.ch.SendCont(s.j, s.k) {
				return
			}
		case 5:
			if _, ok := w.ch.RecvCont(s.k); !ok {
				return
			}
		}
		s.busy = false
		s.note(s.j)
	}
}

// checkWaiterProgram compares every mixed form of a program with its
// all-proc run: the same operations finish in the same order, at the
// same instants, with the same sequence stamps and event counts.
func checkWaiterProgram(t *testing.T, data []byte, masks []uint) {
	t.Helper()
	want, wantEvents := waiterProgram(data, 0)
	for _, mask := range masks {
		got, gotEvents := waiterProgram(data, mask)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("mask %06b:\n%v\nall procs:\n%v", mask, got, want)
		}
		if gotEvents != wantEvents {
			t.Fatalf("mask %06b: Events() = %d, all procs %d", mask, gotEvents, wantEvents)
		}
	}
}

// Procs and continuations waiting on the same Cond, Resource and Chan
// are served in one FIFO order and woken at the instants, in the
// slots, a proc in each one's place would be.
func TestMixedWaitersMatchProcs(t *testing.T) {
	progs := [][]byte{
		// Four contend for the resource with different holds.
		{3, 0x08, 0x10, 0x18, 0x20, 0x08, 0x10, 0x18, 0x20},
		// Waiters on the Cond, then one signal, then a broadcast.
		{3, 1, 1, 1, 6, 0x0e, 1, 2, 0x16, 3, 2},
		// Producers and consumers on a 2-slot channel.
		{5, 4, 5, 4, 5, 4, 4, 4, 4, 5, 5, 5, 5, 5, 4, 4},
		// Everything at once.
		{5, 0x08, 1, 4, 5, 0x0e, 2, 0x20, 5, 4, 3, 0x18, 1, 4, 5, 2, 0x10, 0x0f},
	}
	masks := []uint{0b111111, 0b000001, 0b101010, 0b010101, 0b110011}
	for _, data := range progs {
		checkWaiterProgram(t, data, masks)
	}
}

// FuzzMixedWaitersMatchProcs drives random programs through random
// mixes of procs and continuations.
func FuzzMixedWaitersMatchProcs(f *testing.F) {
	f.Add([]byte{5, 0x08, 1, 4, 5, 0x0e, 2, 0x20, 5, 4, 3, 0x18, 1, 4, 5, 2, 0x10, 0x0f}, uint8(0b101010))
	f.Add([]byte{3, 1, 1, 1, 6, 0x0e, 1, 2, 0x16, 3, 2}, uint8(0b111111))
	f.Fuzz(func(t *testing.T, data []byte, mask uint8) {
		if len(data) < 1 || len(data) > 80 {
			return
		}
		checkWaiterProgram(t, data, []uint{uint(mask)})
	})
}

// counterCont counts its runs.
type counterCont struct{ n int }

func countCont(a any) { a.(*counterCont).n++ }

// A continuation's Cond wait and wakeup allocate nothing.
func TestContWaitAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	x := &counterCont{}
	k := Cont{Fn: countCont, Arg: x}
	allocs := testing.AllocsPerRun(100, func() {
		c.WaitCont(k)
		c.Signal()
		e.Run()
	})
	if allocs != 0 || x.n != 101 {
		t.Fatalf("callback wait: %.1f allocs, %d wakeups; want 0, 101", allocs, x.n)
	}
}

// A resource handed to a queued continuation, and the continuation's
// hold through to release, allocate nothing.
func TestContResourceGrantAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r")
	var h Hold
	x := &counterCont{}
	var k Cont
	k = Cont{Fn: func(any) {
		if h.Step(k) {
			x.n++
		}
	}}
	allocs := testing.AllocsPerRun(100, func() {
		if !r.AcquireCont(k) { // free: taken at once
			t.Fatal("free resource not granted")
		}
		h = r.Hold(time.Microsecond)
		if h.Step(k) { // held by ourselves: queued
			t.Fatal("held resource granted")
		}
		r.Release() // grant to k
		e.Run()
	})
	if allocs != 0 || x.n != 101 || r.Held() {
		t.Fatalf("callback grant: %.1f allocs, %d holds, held %v; want 0, 101, false", allocs, x.n, r.Held())
	}
}

// A continuation sleeping alone is always the next event: each
// RunUntil step wakes it once through the queue, its other sleeps are
// elided in its own loop, and none of it allocates.
func TestContSleepElidedZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	var k Cont
	k = Cont{Fn: func(any) {
		for e.WakeAt(e.Now()+1, k) {
		}
	}}
	e.AtCall(0, k.Fn, nil)
	e.RunUntil(e.Now() + 1000)
	ev := e.Events()
	allocs := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 1000) })
	if allocs != 0 {
		t.Errorf("elided continuation sleeps: %.1f allocs, want 0", allocs)
	}
	if got := e.Events() - ev; got != 101*1000 {
		t.Errorf("%d events over 101 RunUntil steps of 1000 ns, want %d: every sleep counts", got, 101*1000)
	}
	if e.Resumes() != 0 {
		t.Errorf("%d proc resumes without a proc", e.Resumes())
	}
}
