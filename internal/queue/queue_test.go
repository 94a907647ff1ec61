package queue

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bus"
	"repro/internal/dpm"
	"repro/internal/mem"
	"repro/internal/sim"
)

func newRig() (*sim.Engine, *dpm.Memory) {
	e := sim.NewEngine(1)
	return e, dpm.New(e, bus.New(e, bus.Config{}))
}

func TestRingPushPopRoundTrip(t *testing.T) {
	e, d := newRig()
	r := NewRing(d, 0, 8)
	e.Go("host", func(p *sim.Proc) {
		r.Init(p, dpm.Host)
		want := Desc{Addr: 0x1000, Len: 44, VCI: 7, Flags: FlagEOP, Aux: 3}
		if !r.TryPush(p, dpm.Host, want) {
			t.Fatal("push failed")
		}
		got, ok := r.TryPop(p, dpm.Board)
		if !ok {
			t.Fatal("pop failed")
		}
		if got != want {
			t.Errorf("got %+v, want %+v", got, want)
		}
	})
	e.Run()
	e.Shutdown()
}

func TestRingEmptyAndFullConditions(t *testing.T) {
	e, d := newRig()
	r := NewRing(d, 0, 4) // capacity 3
	e.Go("p", func(p *sim.Proc) {
		r.Init(p, dpm.Host)
		if _, ok := r.TryPop(p, dpm.Board); ok {
			t.Error("pop from empty ring succeeded")
		}
		for i := 0; i < 3; i++ {
			if !r.TryPush(p, dpm.Host, Desc{Addr: mem.PhysAddr(i)}) {
				t.Fatalf("push %d failed", i)
			}
		}
		if r.TryPush(p, dpm.Host, Desc{}) {
			t.Error("push to full ring succeeded")
		}
		if !r.WriterFull(p, dpm.Host) {
			t.Error("WriterFull = false on full ring")
		}
		// Drain and confirm FIFO order.
		for i := 0; i < 3; i++ {
			got, ok := r.TryPop(p, dpm.Board)
			if !ok || got.Addr != mem.PhysAddr(i) {
				t.Fatalf("pop %d = %+v, %v", i, got, ok)
			}
		}
		if _, ok := r.TryPop(p, dpm.Board); ok {
			t.Error("pop from a drained ring succeeded")
		}
	})
	e.Run()
	e.Shutdown()
}

func TestRingWrapsAround(t *testing.T) {
	e, d := newRig()
	r := NewRing(d, 64, 4)
	e.Go("p", func(p *sim.Proc) {
		r.Init(p, dpm.Host)
		next := 0
		for round := 0; round < 10; round++ {
			for i := 0; i < 3; i++ {
				if !r.TryPush(p, dpm.Host, Desc{Aux: uint32(next + i)}) {
					t.Fatal("push failed")
				}
			}
			for i := 0; i < 3; i++ {
				got, ok := r.TryPop(p, dpm.Board)
				if !ok || got.Aux != uint32(next+i) {
					t.Fatalf("round %d pop %d = %+v", round, i, got)
				}
			}
			next += 3
		}
	})
	e.Run()
	e.Shutdown()
}

func TestShadowsMinimizePortTraffic(t *testing.T) {
	// The writer should not touch the tail pointer at all while the ring
	// has known space; §2.1's "minimizing load and store operations".
	e, d := newRig()
	r := NewRing(d, 0, 64)
	e.Go("host", func(p *sim.Proc) {
		r.Init(p, dpm.Host)
		d.ResetStats()
		for i := 0; i < 32; i++ {
			r.TryPush(p, dpm.Host, Desc{})
		}
		s := d.Stats()
		// 32 pushes × (4 descriptor words + head update) = 160 writes,
		// zero reads: tail shadow starts accurate.
		if s.HostWrites != 160 {
			t.Errorf("HostWrites = %d, want 160", s.HostWrites)
		}
		if s.HostReads != 0 {
			t.Errorf("HostReads = %d, want 0 (shadow must avoid tail reads)", s.HostReads)
		}
	})
	e.Run()
	e.Shutdown()
}

func TestConcurrentProducerConsumer(t *testing.T) {
	// Host pushes 200 descriptors while the board concurrently pops,
	// each at different rates; nothing may be lost, duplicated, or
	// reordered — with no lock anywhere (§2.1.1).
	e, d := newRig()
	r := NewRing(d, 128, 8)
	const n = 200
	var got []uint32
	e.Go("init", func(p *sim.Proc) { r.Init(p, dpm.Host) })
	e.Go("host", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		for i := 0; i < n; {
			if r.TryPush(p, dpm.Host, Desc{Aux: uint32(i)}) {
				i++
			} else {
				p.Sleep(500 * time.Nanosecond)
			}
		}
	})
	e.Go("board", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		for len(got) < n {
			if desc, ok := r.TryPop(p, dpm.Board); ok {
				got = append(got, desc.Aux)
				p.Sleep(300 * time.Nanosecond) // board processing time
			} else {
				p.Sleep(700 * time.Nanosecond)
			}
		}
	})
	e.Run()
	e.Shutdown()
	if len(got) != n {
		t.Fatalf("received %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint32(i) {
			t.Fatalf("order violated at %d: %v...", i, got[:i+1])
		}
	}
}

func TestObserveTailForReclaim(t *testing.T) {
	e, d := newRig()
	r := NewRing(d, 0, 8)
	e.Go("p", func(p *sim.Proc) {
		r.Init(p, dpm.Host)
		for i := 0; i < 5; i++ {
			r.TryPush(p, dpm.Host, Desc{})
		}
		if r.WriterLen() != 5 {
			t.Errorf("WriterLen = %d, want 5", r.WriterLen())
		}
		for i := 0; i < 3; i++ {
			r.TryPop(p, dpm.Board)
		}
		// Writer hasn't observed the consumption yet.
		if got := r.ObserveTail(p, dpm.Host); got != 3 {
			t.Errorf("ObserveTail = %d, want 3", got)
		}
		if r.WriterLen() != 2 {
			t.Errorf("WriterLen after observe = %d, want 2", r.WriterLen())
		}
	})
	e.Run()
	e.Shutdown()
}

func TestHalfEmptyPoint(t *testing.T) {
	e, d := newRig()
	r := NewRing(d, 0, 64)
	if r.HalfEmptyPoint() != 32 {
		t.Errorf("HalfEmptyPoint = %d", r.HalfEmptyPoint())
	}
	_ = e
}

func TestBytesFor(t *testing.T) {
	if BytesFor(64) != 4*(2+64*4) {
		t.Errorf("BytesFor(64) = %d", BytesFor(64))
	}
}

func TestRingValidation(t *testing.T) {
	_, d := newRig()
	for _, fn := range []func(){
		func() { NewRing(d, 0, 1) },
		func() { NewRing(d, 2, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid ring construction did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestRingString(t *testing.T) {
	_, d := newRig()
	r := NewRing(d, 0x40, 8)
	if r.String() != "ring@0x40[8]" {
		t.Errorf("String = %q", r.String())
	}
}

// Property: any interleaving of pushes and pops (driven by a random
// schedule) preserves FIFO semantics exactly, modelled against a slice.
func TestRingMatchesModelQuick(t *testing.T) {
	f := func(ops []bool) bool {
		e, d := newRig()
		r := NewRing(d, 0, 4)
		okAll := true
		e.Go("p", func(p *sim.Proc) {
			r.Init(p, dpm.Host)
			var model []uint32
			seq := uint32(0)
			for _, push := range ops {
				if push {
					pushed := r.TryPush(p, dpm.Host, Desc{Aux: seq})
					if pushed != (len(model) < 3) {
						okAll = false
						return
					}
					if pushed {
						model = append(model, seq)
					}
					seq++
				} else {
					got, ok := r.TryPop(p, dpm.Board)
					if ok != (len(model) > 0) {
						okAll = false
						return
					}
					if ok {
						if got.Aux != model[0] {
							okAll = false
							return
						}
						model = model[1:]
					}
				}
			}
		})
		e.Run()
		e.Shutdown()
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// run completes op o from proc p and returns it, for the Op forms
// without a proc wrapper.
func run(p *sim.Proc, o *Op) *Op {
	p.Await(o)
	return o
}

// Peek reads the k-th descriptor without consuming it and fails past
// the head; Advance then consumes what was peeked, and Len counts what
// is left.
func TestPeekAdvanceLen(t *testing.T) {
	e, d := newRig()
	defer e.Shutdown()
	r := NewRing(d, 0, 8)
	e.Go("board", func(p *sim.Proc) {
		r.Init(p, dpm.Host)
		for i := 0; i < 3; i++ {
			r.TryPush(p, dpm.Host, Desc{Addr: mem.PhysAddr(0x1000 * (i + 1)), Len: uint32(i + 1), VCI: 5, Flags: uint16(i), Aux: 9})
		}
		var o Op
		for k := 0; k < 3; k++ {
			o.Peek(r, dpm.Board, k)
			if got := run(p, &o); !got.OK() || got.Desc().Len != uint32(k+1) || got.Desc().Flags != uint16(k) || got.Desc().VCI != 5 || got.Desc().Aux != 9 {
				t.Errorf("Peek(%d) = %+v, %v", k, got.Desc(), got.OK())
			}
		}
		if o.Peek(r, dpm.Board, 3); run(p, &o).OK() || o.Desc() != (Desc{}) {
			t.Errorf("Peek past the head = %+v, %v; want none", o.Desc(), o.OK())
		}
		o.Advance(r, dpm.Board, 2)
		run(p, &o)
		if o.Len(r, dpm.Board); run(p, &o).N() != 1 {
			t.Errorf("Len after advancing 2 of 3 = %d, want 1", o.N())
		}
		if got, ok := r.TryPop(p, dpm.Board); !ok || got.Len != 3 {
			t.Errorf("pop after the advance = %+v, %v; want the third descriptor", got, ok)
		}
		if r.ObserveTail(p, dpm.Host) != 3 {
			t.Error("the tail the host sees did not move past all three")
		}
	})
	e.Run()
}

// Notify interrupts only when the host has set the flag and the ring
// has drained to half, and clears the flag when it does.
func TestNotifyHalfEmpty(t *testing.T) {
	e, d := newRig()
	defer e.Shutdown()
	r := NewRing(d, 0, 8)
	const flag = 0x800
	e.Go("board", func(p *sim.Proc) {
		r.Init(p, dpm.Host)
		var o Op
		if o.Notify(r, dpm.Board, flag); run(p, &o).OK() {
			t.Error("notified with the flag clear")
		}
		for i := 0; i < 7; i++ {
			r.TryPush(p, dpm.Host, Desc{Len: 1})
		}
		d.WriteWord(p, dpm.Host, flag, 1)
		for i := 0; i < 7; i++ {
			o.Pop(r, dpm.Board)
			run(p, &o)
			o.Notify(r, dpm.Board, flag)
			want := 6-i <= r.HalfEmptyPoint() && d.ReadWord(p, dpm.Board, flag) != 0
			if got := run(p, &o).OK(); got != want {
				t.Errorf("after %d pops: Notify = %v, want %v", i+1, got, want)
			}
		}
		if d.ReadWord(p, dpm.Board, flag) != 0 {
			t.Error("the notify flag is still set")
		}
	})
	e.Run()
}
