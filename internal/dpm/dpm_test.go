package dpm

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/sim"
)

func newDPM() (*sim.Engine, *Memory) {
	e := sim.NewEngine(1)
	return e, New(e, bus.New(e, bus.Config{}))
}

func TestWordRoundTrip(t *testing.T) {
	e, d := newDPM()
	e.Go("host", func(p *sim.Proc) {
		d.WriteWord(p, Host, 0x100, 0xCAFEBABE)
		if got := d.ReadWord(p, Board, 0x100); got != 0xCAFEBABE {
			t.Errorf("board read %#x", got)
		}
		d.WriteWord(p, Board, 0x104, 7)
		if got := d.ReadWord(p, Host, 0x104); got != 7 {
			t.Errorf("host read %d", got)
		}
	})
	e.Run()
	e.Shutdown()
}

func TestHostAccessCostsMoreThanBoard(t *testing.T) {
	e, d := newDPM()
	var hostCost, boardCost sim.Time
	e.Go("p", func(p *sim.Proc) {
		t0 := p.Now()
		d.ReadWord(p, Host, 0)
		hostCost = p.Now() - t0
		t0 = p.Now()
		d.ReadWord(p, Board, 0)
		boardCost = p.Now() - t0
	})
	e.Run()
	e.Shutdown()
	if hostCost <= boardCost {
		t.Errorf("host access %v not slower than board %v", hostCost, boardCost)
	}
}

func TestTestAndSet(t *testing.T) {
	e, d := newDPM()
	e.Go("p", func(p *sim.Proc) {
		if d.TestAndSet(p, Host, SendLock) {
			t.Error("first TAS returned held")
		}
		if !d.TestAndSet(p, Board, SendLock) {
			t.Error("second TAS did not see the lock held")
		}
		if d.TestAndSet(p, Host, RecvLock) {
			t.Error("locks not independent")
		}
		d.ClearLock(p, Host, SendLock)
		if d.TestAndSet(p, Board, SendLock) {
			t.Error("TAS after clear returned held")
		}
	})
	e.Run()
	e.Shutdown()
	if !d.LockHeld(SendLock) || !d.LockHeld(RecvLock) {
		t.Error("final lock state wrong")
	}
}

func TestPageOffsets(t *testing.T) {
	if TxPageOff(0) != 0 || TxPageOff(15) != 15*4096 {
		t.Error("TxPageOff wrong")
	}
	if RxPageOff(0) != 64*1024 || RxPageOff(15) != 64*1024+15*4096 {
		t.Error("RxPageOff wrong")
	}
	for _, fn := range []func(){func() { TxPageOff(16) }, func() { RxPageOff(-1) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range page did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestUnalignedAndOOBPanic(t *testing.T) {
	e, d := newDPM()
	e.Go("p", func(p *sim.Proc) {
		for _, fn := range []func(){
			func() { d.ReadWord(p, Board, 2) },
			func() { d.WriteWord(p, Board, Size, 0) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("bad access did not panic")
					}
				}()
				fn()
			}()
		}
	})
	e.Run()
	e.Shutdown()
}

func TestStatsBySide(t *testing.T) {
	e, d := newDPM()
	e.Go("p", func(p *sim.Proc) {
		d.ReadWord(p, Host, 0)
		d.WriteWord(p, Host, 0, 1)
		d.WriteWord(p, Host, 4, 1)
		d.ReadWord(p, Board, 0)
	})
	e.Run()
	e.Shutdown()
	s := d.Stats()
	if s.HostReads != 1 || s.HostWrites != 2 || s.BoardReads != 1 || s.BoardWrites != 0 {
		t.Errorf("stats = %+v", s)
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Error("ResetStats incomplete")
	}
}

func TestAccessorString(t *testing.T) {
	if Host.String() != "host" || Board.String() != "board" {
		t.Error("Accessor strings wrong")
	}
}

// TestRelease: a fresh memory reads zero everywhere, and after Release
// (twice, the second a no-op) a word access fails the bounds check
// before it charges anything.
func TestRelease(t *testing.T) {
	e, d := newDPM()
	e.Go("board", func(p *sim.Proc) {
		for _, off := range []uint32{0, HalfSize, Size - 4} {
			if got := d.ReadWord(p, Board, off); got != 0 {
				t.Errorf("fresh word at %#x = %#x, want 0", off, got)
			}
		}
	})
	e.Run()
	e.Shutdown()
	d.Release()
	d.Release()
	defer func() {
		if msg, _ := recover().(string); msg != "dpm: access at 0x100 beyond 0" {
			t.Errorf("ReadWord after Release panicked with %q, want the bounds message", msg)
		}
	}()
	d.ReadWord(nil, Board, 0x100)
}

// boardReader is a continuation that loads one board word n times.
type boardReader struct {
	m    *Memory
	k    sim.Cont
	a    Access
	n    int
	busy bool
}

func (r *boardReader) run() {
	for ; r.n > 0; r.n-- {
		if !r.busy {
			r.a.Load(r.m, Board, 8)
			r.busy = true
		}
		if !r.a.Step(r.k) {
			return
		}
		r.busy = false
	}
}

// BenchmarkBoardWordElided measures one board-side word load whose
// wakeup is the engine's next event, so it takes no event: proc is
// ReadWord from a proc, cont the Access stepped by a continuation, the
// form the board's firmware and DMA engines use. The continuation form
// must cost no more than the proc form.
func BenchmarkBoardWordElided(b *testing.B) {
	b.Run("proc", func(b *testing.B) {
		e, m := newDPM()
		defer e.Shutdown()
		e.Go("reader", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				m.ReadWord(p, Board, 8)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		e.Run()
	})
	b.Run("cont", func(b *testing.B) {
		e, m := newDPM()
		defer e.Shutdown()
		r := &boardReader{m: m, n: b.N}
		r.k = sim.Cont{Fn: func(any) { r.run() }}
		e.AtCall(0, r.k.Fn, nil)
		b.ReportAllocs()
		b.ResetTimer()
		e.Run()
	})
}
