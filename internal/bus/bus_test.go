package bus

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestCycleTime(t *testing.T) {
	b := New(sim.NewEngine(1), Config{})
	if b.CycleTime() != 40*time.Nanosecond {
		t.Errorf("CycleTime = %v, want 40ns at 25 MHz", b.CycleTime())
	}
}

func TestWordsFor(t *testing.T) {
	b := New(sim.NewEngine(1), Config{})
	cases := []struct{ bytes, words int }{
		{0, 0}, {1, 1}, {4, 1}, {5, 2}, {44, 11}, {88, 22},
	}
	for _, c := range cases {
		if got := b.WordsFor(c.bytes); got != c.words {
			t.Errorf("WordsFor(%d) = %d, want %d", c.bytes, got, c.words)
		}
	}
}

// The paper's §2.5.1 arithmetic must come out exactly.
func TestPaperThroughputCeilings(t *testing.T) {
	b := New(sim.NewEngine(1), Config{})
	cases := []struct {
		bytes int
		read  bool
		want  float64
	}{
		{44, true, 11.0 / 24.0 * 800},  // 367 Mbps transmit, single cell
		{44, false, 11.0 / 19.0 * 800}, // 463 Mbps receive, single cell
		{88, true, 22.0 / 35.0 * 800},  // 503 Mbps transmit, double cell
		{88, false, 22.0 / 30.0 * 800}, // 587 Mbps receive, double cell
	}
	for _, c := range cases {
		got := b.MaxDMAThroughputMbps(c.bytes, c.read)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("MaxDMAThroughputMbps(%d, read=%v) = %f, want %f", c.bytes, c.read, got, c.want)
		}
	}
}

func TestDMATransactionOccupancy(t *testing.T) {
	e := sim.NewEngine(1)
	b := New(e, Config{})
	var done sim.Time
	e.Go("dma", func(p *sim.Proc) {
		b.DMAWrite(44).Do(p) // 8 + 11 = 19 cycles = 760 ns
		done = p.Now()
	})
	e.Run()
	e.Shutdown()
	if done != sim.Time(760*time.Nanosecond) {
		t.Errorf("DMA write of 44B took %v, want 760ns", time.Duration(done))
	}
}

func TestMeasuredRateMatchesCeiling(t *testing.T) {
	// Drive back-to-back 44-byte DMA writes for a while; achieved rate
	// must equal the theoretical ceiling.
	e := sim.NewEngine(1)
	b := New(e, Config{})
	const n = 1000
	e.Go("dma", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			b.DMAWrite(44).Do(p)
		}
	})
	end := e.Run()
	e.Shutdown()
	mbps := float64(n*44*8) / end.Seconds() / 1e6
	want := b.MaxDMAThroughputMbps(44, false)
	if math.Abs(mbps-want) > 0.5 {
		t.Errorf("achieved %f Mbps, ceiling %f", mbps, want)
	}
}

func TestSerializedContention(t *testing.T) {
	// On a serialized bus, concurrent DMA and CPU memory traffic slow
	// each other down; on a crossbar they do not.
	run := func(serialized bool) sim.Time {
		e := sim.NewEngine(1)
		b := New(e, Config{Serialized: serialized})
		var dmaDone sim.Time
		e.Go("dma", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				b.DMAWrite(44).Do(p)
			}
			dmaDone = p.Now()
		})
		e.Go("cpu", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				b.CPUMemRead(p, 4)
			}
		})
		e.Run()
		e.Shutdown()
		return dmaDone
	}
	serial := run(true)
	crossbar := run(false)
	if serial <= crossbar {
		t.Errorf("serialized DMA completion %v not slower than crossbar %v", serial, crossbar)
	}
	// On the crossbar the DMA stream must be completely unaffected:
	// 100 × 19 cycles × 40 ns = 76 µs.
	if crossbar != sim.Time(76*time.Microsecond) {
		t.Errorf("crossbar DMA completion %v, want 76µs", time.Duration(crossbar))
	}
}

func TestPIOSlowerThanDMAPerWord(t *testing.T) {
	e := sim.NewEngine(1)
	b := New(e, Config{})
	var pioDone, dmaDone time.Duration
	e.Go("pio", func(p *sim.Proc) {
		start := p.Now()
		b.PIORead(11).Do(p) // one cell payload, word at a time
		pioDone = time.Duration(p.Now() - start)
	})
	e.Run()
	e.Go("dma", func(p *sim.Proc) {
		start := p.Now()
		b.DMARead(44).Do(p)
		dmaDone = time.Duration(p.Now() - start)
	})
	e.Run()
	e.Shutdown()
	if pioDone <= dmaDone {
		t.Errorf("PIO (%v) not slower than DMA (%v) for one cell", pioDone, dmaDone)
	}
}

func TestStatsAccumulate(t *testing.T) {
	e := sim.NewEngine(1)
	b := New(e, Config{})
	e.Go("x", func(p *sim.Proc) {
		b.DMARead(44).Do(p)
		b.DMAWrite(88).Do(p)
		b.PIOWrite(3).Do(p)
		b.CPUMemRead(p, 2)
	})
	e.Run()
	e.Shutdown()
	s := b.Stats()
	if s.DMAReadTxns != 1 || s.DMAReadWords != 11 {
		t.Errorf("DMARead stats %+v", s)
	}
	if s.DMAWriteTxns != 1 || s.DMAWriteWords != 22 {
		t.Errorf("DMAWrite stats %+v", s)
	}
	if s.PIOWords != 3 || s.CPUMemWords != 2 {
		t.Errorf("PIO/CPU stats %+v", s)
	}
	if b.BusyTime() == 0 {
		t.Error("BusyTime = 0")
	}
	b.ResetStats()
	if b.Stats() != (Stats{}) || b.BusyTime() != 0 {
		t.Error("ResetStats incomplete")
	}
}

func TestCrossbarResetStatsCoversMemPort(t *testing.T) {
	e := sim.NewEngine(1)
	b := New(e, Config{Serialized: false})
	e.Go("x", func(p *sim.Proc) { b.CPUMemRead(p, 4) })
	e.Run()
	e.Shutdown()
	b.ResetStats()
	if b.Stats().CPUMemWords != 0 {
		t.Error("stats not reset")
	}
}

func TestConfigDefaults(t *testing.T) {
	b := New(sim.NewEngine(1), Config{})
	cfg := b.Config()
	if cfg.ClockHz != 25_000_000 || cfg.WordBytes != 4 ||
		cfg.DMAReadOverhead != 13 || cfg.DMAWriteOverhead != 8 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
}

func TestMemClockDecoupledFromBusClock(t *testing.T) {
	// A crossbar machine's private memory port runs on its own clock:
	// CPU memory traffic must be priced at MemClockHz, not the 25 MHz
	// TURBOchannel.
	e := sim.NewEngine(1)
	b := New(e, Config{MemClockHz: 100_000_000, Serialized: false})
	var took time.Duration
	e.Go("cpu", func(p *sim.Proc) {
		start := p.Now()
		b.CPUMemRead(p, 4) // (5 + 4) cycles at 10 ns = 90 ns
		took = time.Duration(p.Now() - start)
	})
	e.Run()
	e.Shutdown()
	if took != 90*time.Nanosecond {
		t.Errorf("mem read took %v, want 90ns at 100 MHz", took)
	}
	// DMA still runs at the bus clock.
	var dma time.Duration
	e2 := sim.NewEngine(1)
	b2 := New(e2, Config{MemClockHz: 100_000_000})
	e2.Go("dma", func(p *sim.Proc) {
		start := p.Now()
		b2.DMAWrite(44).Do(p) // 19 cycles at 40 ns = 760 ns
		dma = time.Duration(p.Now() - start)
	})
	e2.Run()
	e2.Shutdown()
	if dma != 760*time.Nanosecond {
		t.Errorf("DMA took %v, want 760ns at 25 MHz", dma)
	}
}

func TestCPUOccupyContendsOnlyWhenSerialized(t *testing.T) {
	run := func(serialized bool) time.Duration {
		e := sim.NewEngine(1)
		b := New(e, Config{Serialized: serialized})
		var dmaDone sim.Time
		e.Go("dma", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				b.DMAWrite(44).Do(p)
			}
			dmaDone = p.Now()
		})
		e.Go("cpu", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				b.CPUOccupy(time.Microsecond).Do(p)
			}
		})
		e.Run()
		e.Shutdown()
		return time.Duration(dmaDone)
	}
	if crossbar := run(false); crossbar != 38*time.Microsecond {
		t.Errorf("crossbar DMA completion %v, want exactly 38µs", crossbar)
	}
	if serial := run(true); serial <= 38*time.Microsecond {
		t.Errorf("serialized DMA completion %v not delayed by CPU occupancy", serial)
	}
}
