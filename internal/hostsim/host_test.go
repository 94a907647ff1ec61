package hostsim

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mem"
	"repro/internal/sim"
)

func TestProfilesSane(t *testing.T) {
	for _, p := range []Profile{DEC5000_200(), DEC3000_600()} {
		if p.CPUHz == 0 || p.PageSize == 0 || p.InterruptCost == 0 {
			t.Errorf("%s: zero fields", p.Name)
		}
	}
	ds := DEC5000_200()
	if !ds.Bus.Serialized {
		t.Error("5000/200 must have a serialized bus")
	}
	if ds.InterruptCost != 75*time.Microsecond {
		t.Errorf("5000/200 interrupt cost = %v, want 75µs (§2.1.2)", ds.InterruptCost)
	}
	if ds.CacheSize != 64*1024 {
		t.Errorf("5000/200 cache = %d, want 64KB (§2.3)", ds.CacheSize)
	}
	alpha := DEC3000_600()
	if alpha.Bus.Serialized {
		t.Error("3000/600 must have a crossbar (non-serialized) bus")
	}
}

func TestCycleTime(t *testing.T) {
	p := DEC5000_200()
	if p.CycleTime() != 40*time.Nanosecond {
		t.Errorf("cycle = %v", p.CycleTime())
	}
	if p.Cycles(100) != 4*time.Microsecond {
		t.Errorf("Cycles(100) = %v", p.Cycles(100))
	}
}

func TestComputeSerializesOnCPU(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, DEC5000_200(), 64)
	var aDone, bDone sim.Time
	e.Go("a", func(p *sim.Proc) {
		h.Compute(p, 10*time.Microsecond)
		aDone = p.Now()
	})
	e.Go("b", func(p *sim.Proc) {
		h.Compute(p, 10*time.Microsecond)
		bDone = p.Now()
	})
	e.Run()
	e.Shutdown()
	if aDone != sim.Time(10*time.Microsecond) || bDone != sim.Time(20*time.Microsecond) {
		t.Errorf("aDone=%v bDone=%v, want 10µs/20µs", aDone, bDone)
	}
}

func TestComputeZeroIsFree(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, DEC5000_200(), 64)
	e.Go("a", func(p *sim.Proc) {
		h.Compute(p, 0)
		if p.Now() != 0 {
			t.Error("zero compute advanced time")
		}
	})
	e.Run()
	e.Shutdown()
}

func TestCPUReadDataReturnsBytesAndCharges(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, DEC5000_200(), 64)
	f, _ := h.Mem.AllocFrame()
	pa := h.Mem.FrameAddr(f)
	want := make([]byte, 256)
	for i := range want {
		want[i] = byte(i)
	}
	h.Mem.Write(pa, want)
	var got []byte
	var took time.Duration
	e.Go("reader", func(p *sim.Proc) {
		start := p.Now()
		got = h.CPUReadData(p, []mem.PhysBuffer{{Addr: pa, Len: 256}})
		took = time.Duration(p.Now() - start)
	})
	e.Run()
	e.Shutdown()
	if string(got) != string(want) {
		t.Error("data mismatch")
	}
	if took == 0 {
		t.Error("read charged no time")
	}
	// Second read (cached) must be cheaper.
	var took2 time.Duration
	e2 := sim.NewEngine(1)
	h2 := New(e2, DEC5000_200(), 64)
	h2.Mem.Write(pa, want)
	e2.Go("reader", func(p *sim.Proc) {
		h2.CPUReadData(p, []mem.PhysBuffer{{Addr: pa, Len: 256}})
		start := p.Now()
		h2.CPUReadData(p, []mem.PhysBuffer{{Addr: pa, Len: 256}})
		took2 = time.Duration(p.Now() - start)
	})
	e2.Run()
	e2.Shutdown()
	if took2 >= took {
		t.Errorf("cached read (%v) not cheaper than cold read (%v)", took2, took)
	}
}

func TestInternetChecksum(t *testing.T) {
	// RFC 1071 example: bytes 00 01 f2 03 f4 f5 f6 f7 sum to ddf2
	// (before complement).
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := InternetChecksum(data); got != ^uint16(0xddf2) {
		t.Errorf("checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
	// Odd length.
	if InternetChecksum([]byte{0xFF}) != ^uint16(0xFF00) {
		t.Error("odd-length checksum wrong")
	}
	if InternetChecksum(nil) != 0xFFFF {
		t.Error("empty checksum wrong")
	}
}

func TestChecksumDetectsStaleCache(t *testing.T) {
	// A checksum computed over stale cache contents differs from one
	// over fresh memory — the error-detection mechanism the lazy
	// invalidation scheme relies on (§2.3).
	e := sim.NewEngine(1)
	h := New(e, DEC5000_200(), 64)
	f, _ := h.Mem.AllocFrame()
	pa := h.Mem.FrameAddr(f)
	old := make([]byte, 64)
	fresh := make([]byte, 64)
	for i := range fresh {
		fresh[i] = byte(i + 1)
	}
	h.Mem.Write(pa, old)
	var stale, clean uint16
	e.Go("p", func(p *sim.Proc) {
		h.CPUReadData(p, []mem.PhysBuffer{{Addr: pa, Len: 64}}) // cache old
		h.Cache.DMAWrite(pa, fresh)                             // DMA under the cache
		stale = h.Checksum(p, []mem.PhysBuffer{{Addr: pa, Len: 64}})
		h.InvalidateData(p, []mem.PhysBuffer{{Addr: pa, Len: 64}})
		clean = h.Checksum(p, []mem.PhysBuffer{{Addr: pa, Len: 64}})
	})
	e.Run()
	e.Shutdown()
	if stale == clean {
		t.Error("stale and clean checksums identical; cache model broken")
	}
	if clean != InternetChecksum(fresh) {
		t.Error("clean checksum != direct checksum")
	}
}

func TestInvalidateDataCharges(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, DEC5000_200(), 64)
	var took time.Duration
	e.Go("p", func(p *sim.Proc) {
		start := p.Now()
		h.InvalidateData(p, []mem.PhysBuffer{{Addr: 0, Len: 16384}})
		took = time.Duration(p.Now() - start)
	})
	e.Run()
	e.Shutdown()
	// 16 KB = 4096 words ≈ 4096 cycles = 163.84 µs at 25 MHz.
	want := h.Prof.Cycles(4096)
	if took != want {
		t.Errorf("invalidate took %v, want %v", took, want)
	}
}

func TestWireFastVsSlow(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, DEC5000_200(), 64)
	var fast, slow time.Duration
	e.Go("p", func(p *sim.Proc) {
		s := p.Now()
		h.WirePages(p, 4, false)
		fast = time.Duration(p.Now() - s)
		s = p.Now()
		h.WirePages(p, 4, true)
		slow = time.Duration(p.Now() - s)
	})
	e.Run()
	e.Shutdown()
	if slow != time.Duration(h.Prof.WireSlowFactor)*fast {
		t.Errorf("slow=%v fast=%v factor=%d", slow, fast, h.Prof.WireSlowFactor)
	}
}

func TestInterruptDispatch(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, DEC5000_200(), 64)
	var handled sim.Time
	h.Int.Handle(1, func(p *sim.Proc) { handled = p.Now() })
	e.At(1000, func() { h.Int.Assert(1) })
	e.Run()
	e.Shutdown()
	want := sim.Time(1000).Add(h.Prof.InterruptCost)
	if handled != want {
		t.Errorf("handler ran at %v, want %v", handled, want)
	}
	if h.Int.Count(1) != 1 {
		t.Errorf("count = %d", h.Int.Count(1))
	}
}

func TestInterruptCoalescing(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, DEC5000_200(), 64)
	runs := 0
	h.Int.Handle(2, func(p *sim.Proc) { runs++ })
	e.At(100, func() {
		h.Int.Assert(2)
		h.Int.Assert(2) // still pending: coalesced
		h.Int.Assert(2)
	})
	e.Run()
	e.Shutdown()
	if runs != 1 {
		t.Errorf("handler ran %d times, want 1", runs)
	}
	if h.Int.Count(2) != 1 {
		t.Errorf("Count = %d, want 1 (coalesced asserts don't count)", h.Int.Count(2))
	}
	h.Int.ResetCounts()
	if h.Int.Count(2) != 0 {
		t.Error("ResetCounts failed")
	}
}

func TestInterruptAfterHandlerRunsAgain(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, DEC5000_200(), 64)
	runs := 0
	h.Int.Handle(3, func(p *sim.Proc) { runs++ })
	e.At(100, func() { h.Int.Assert(3) })
	e.At(sim.Time(200*time.Microsecond), func() { h.Int.Assert(3) })
	e.Run()
	e.Shutdown()
	if runs != 2 {
		t.Errorf("handler ran %d times, want 2", runs)
	}
}

func TestUnhandledInterruptIsSafe(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, DEC5000_200(), 64)
	e.At(10, func() { h.Int.Assert(99) })
	e.Run()
	e.Shutdown()
	if h.Int.Count(99) != 1 {
		t.Error("unhandled interrupt not counted")
	}
}

// Property: InternetChecksum detects any single-byte change.
func TestChecksumDetectsChangeQuick(t *testing.T) {
	f := func(data []byte, idx uint16, delta byte) bool {
		if len(data) == 0 || delta == 0 {
			return true
		}
		i := int(idx) % len(data)
		orig := InternetChecksum(data)
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[i] += delta
		if string(mut) == string(data) {
			return true
		}
		// Ones-complement sums have one ambiguity (0x00 vs 0xFF word
		// values); tolerate identical sums only when bytes changed
		// between 0x00/0xFF complement pairs.
		if InternetChecksum(mut) == orig {
			return mut[i] == 0xFF || data[i] == 0xFF || mut[i] == 0 || data[i] == 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Dispatching an interrupt reuses the line's prebuilt service body and a
// pooled proc coroutine, so the whole assert-and-service round costs at
// most the one Proc allocation.
func TestInterruptDispatchAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	h := New(e, DEC5000_200(), 64)
	runs := 0
	h.Int.Handle(4, func(p *sim.Proc) { runs++ })
	h.Int.Assert(4)
	e.Run() // warm-up: builds the line and the worker coroutine
	allocs := testing.AllocsPerRun(1000, func() {
		h.Int.Assert(4)
		e.Run()
	})
	if allocs > 1 {
		t.Errorf("Assert+service = %.1f allocs, want ≤1", allocs)
	}
	if runs != 1002 {
		t.Errorf("handler ran %d times, want 1002", runs)
	}
}
