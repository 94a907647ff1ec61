package hostsim

import (
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/sim"
)

func TestComputeStretchesUnderDMAContention(t *testing.T) {
	// §4: "DMA traffic increases the average memory access latency
	// experienced by the CPU." On the serialized 5000/200, CPU work takes
	// longer while DMA hammers the bus.
	elapsed := func(withDMA bool) time.Duration {
		e := sim.NewEngine(1)
		h := New(e, DEC5000_200(), 64)
		if withDMA {
			e.Go("dma", func(p *sim.Proc) {
				for i := 0; i < 2000; i++ {
					h.Bus.DMAWrite(44).Do(p)
				}
			})
		}
		var took time.Duration
		e.Go("cpu", func(p *sim.Proc) {
			start := p.Now()
			h.Compute(p, 200*time.Microsecond)
			took = time.Duration(p.Now() - start)
		})
		e.Run()
		e.Shutdown()
		return took
	}
	quiet := elapsed(false)
	contended := elapsed(true)
	if quiet != 200*time.Microsecond {
		t.Errorf("uncontended compute took %v, want exactly 200µs", quiet)
	}
	// FIFO arbitration alternates CPU and DMA transactions, so the CPU
	// sees a modest but real stretch (the dominant §4 effect is the
	// reverse direction, tested below).
	if contended <= quiet+10*time.Microsecond {
		t.Errorf("contended compute %v not measurably above quiet %v", contended, quiet)
	}
}

func TestComputeDoesNotStretchOnCrossbar(t *testing.T) {
	// The 3000/600's crossbar decouples CPU memory traffic from DMA.
	e := sim.NewEngine(1)
	h := New(e, DEC3000_600(), 64)
	e.Go("dma", func(p *sim.Proc) {
		for i := 0; i < 2000; i++ {
			h.Bus.DMAWrite(44).Do(p)
		}
	})
	var took time.Duration
	e.Go("cpu", func(p *sim.Proc) {
		start := p.Now()
		h.Compute(p, 200*time.Microsecond)
		took = time.Duration(p.Now() - start)
	})
	e.Run()
	e.Shutdown()
	if took != 200*time.Microsecond {
		t.Errorf("crossbar compute took %v under DMA, want exactly 200µs", took)
	}
}

func TestDMAStretchedByCPUTrafficOnlyWhenSerialized(t *testing.T) {
	// The dual of the above: CPU activity steals DMA bandwidth on the
	// DECstation (463 → ~340 Mbps in §4) but not on the Alpha.
	dmaTime := func(prof Profile) time.Duration {
		e := sim.NewEngine(1)
		h := New(e, prof, 64)
		var took sim.Time
		e.Go("dma", func(p *sim.Proc) {
			for i := 0; i < 1000; i++ {
				h.Bus.DMAWrite(44).Do(p)
			}
			took = p.Now()
		})
		e.Go("cpu", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				h.Compute(p, 100*time.Microsecond)
			}
		})
		e.Run()
		e.Shutdown()
		return time.Duration(took)
	}
	ds := dmaTime(DEC5000_200())
	al := dmaTime(DEC3000_600())
	// 1000 × 19 cycles × 40ns = 760µs unimpeded.
	if al != 760*time.Microsecond {
		t.Errorf("crossbar DMA took %v, want exactly 760µs", al)
	}
	if ds <= al {
		t.Errorf("serialized DMA (%v) not slower than crossbar (%v)", ds, al)
	}
}

func TestCheckgsumThroughputCeilings(t *testing.T) {
	// Checksumming a fresh (uncached) 16 KB buffer: the 5000/200 should
	// land in the tens-of-Mbps region (§4's 80 Mbps, without the
	// concurrent DMA here), the Alpha far above it.
	rate := func(prof Profile) float64 {
		e := sim.NewEngine(1)
		h := New(e, prof, 64)
		f, _ := h.Mem.AllocFrame()
		_ = f
		var took time.Duration
		e.Go("cs", func(p *sim.Proc) {
			start := p.Now()
			h.Checksum(p, []mem.PhysBuffer{{Addr: 0, Len: 16384}})
			took = time.Duration(p.Now() - start)
		})
		e.Run()
		e.Shutdown()
		return 16384 * 8 / took.Seconds() / 1e6
	}
	ds := rate(DEC5000_200())
	al := rate(DEC3000_600())
	if ds < 60 || ds > 250 {
		t.Errorf("5000/200 checksum rate %.0f Mbps outside plausible band", ds)
	}
	if al < 3*ds {
		t.Errorf("Alpha checksum (%.0f) not ≫ DECstation (%.0f)", al, ds)
	}
}
