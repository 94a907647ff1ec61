// Package bus models the TURBOchannel I/O bus and its interaction with
// the host memory system.
//
// The paper derives its hardware throughput ceilings from TURBOchannel
// cycle arithmetic (§2.5.1): a 32-bit bus at 25 MHz moves one word per
// cycle once a DMA transaction is under way, but each transaction pays a
// fixed overhead — 13 cycles for DMA reads (board reading host memory,
// the transmit direction) and 8 cycles for DMA writes (receive
// direction). Hence the published ceilings:
//
//	single-cell (11-word) DMA:  tx 11/(11+13)·800 = 367 Mbps,  rx 11/(11+8)·800 = 463 Mbps
//	double-cell (22-word) DMA:  tx 22/(22+13)·800 = 503 Mbps,  rx 22/(22+8)·800 = 587 Mbps
//
// Two contention models are provided (§2.7, §4): Serialized, where every
// memory transaction occupies the TURBOchannel so CPU memory traffic and
// DMA steal bandwidth from each other (DECstation 5000/200); and
// crossbar (the default), where DMA and CPU cache fills/write-backs
// proceed concurrently (DEC 3000 AXP).
package bus

import (
	"time"

	"repro/internal/sim"
)

// Config configures a Bus.
type Config struct {
	// ClockHz is the bus clock (default 25 MHz).
	ClockHz int64
	// WordBytes is the bus width (default 4).
	WordBytes int
	// DMAReadOverhead is the fixed cost, in cycles, of one DMA read
	// transaction (default 13).
	DMAReadOverhead int
	// DMAWriteOverhead is the fixed cost, in cycles, of one DMA write
	// transaction (default 8).
	DMAWriteOverhead int
	// PIOReadCycles / PIOWriteCycles price one word of programmed I/O
	// across the bus (defaults 14 and 9: a one-word transaction).
	PIOReadCycles  int
	PIOWriteCycles int
	// MemReadOverhead is the fixed per-transaction cost of a
	// CPU-initiated memory read (a cache fill), in cycles of the memory
	// clock (default 5).
	MemReadOverhead int
	// MemClockHz clocks the CPU<->memory path. It defaults to ClockHz,
	// which is correct for the DECstation (one shared path); a crossbar
	// machine like the DEC 3000 has a much faster private memory port.
	MemClockHz int64
	// Serialized makes CPU memory traffic occupy the bus, contending
	// with DMA (DECstation 5000/200). When false, CPU memory traffic
	// uses a separate memory port and only other DMA contends (DEC 3000).
	Serialized bool
}

func (c Config) withDefaults() Config {
	if c.ClockHz == 0 {
		c.ClockHz = 25_000_000
	}
	if c.WordBytes == 0 {
		c.WordBytes = 4
	}
	if c.DMAReadOverhead == 0 {
		c.DMAReadOverhead = 13
	}
	if c.DMAWriteOverhead == 0 {
		c.DMAWriteOverhead = 8
	}
	if c.PIOReadCycles == 0 {
		c.PIOReadCycles = 14
	}
	if c.PIOWriteCycles == 0 {
		c.PIOWriteCycles = 9
	}
	if c.MemReadOverhead == 0 {
		c.MemReadOverhead = 5
	}
	if c.MemClockHz == 0 {
		c.MemClockHz = c.ClockHz
	}
	return c
}

// Stats counts bus activity.
type Stats struct {
	DMAReadTxns   int64
	DMAWriteTxns  int64
	DMAReadWords  int64
	DMAWriteWords int64
	PIOWords      int64
	CPUMemWords   int64
}

// Bus is a TURBOchannel instance shared by the host CPU and option cards.
type Bus struct {
	eng     *sim.Engine
	cfg     Config
	channel *sim.Resource // the TURBOchannel itself
	memPort *sim.Resource // CPU<->memory path; == channel when Serialized
	stats   Stats
	// The bus and memory clock periods, divided out once: every
	// transaction is priced in them.
	cycle, memCycle time.Duration
}

// New returns a bus bound to engine e.
func New(e *sim.Engine, cfg Config) *Bus {
	cfg = cfg.withDefaults()
	b := &Bus{eng: e, cfg: cfg}
	b.cycle = time.Duration(int64(time.Second) / cfg.ClockHz)
	b.memCycle = time.Duration(int64(time.Second) / cfg.MemClockHz)
	b.channel = sim.NewResource(e, "turbochannel")
	if cfg.Serialized {
		b.memPort = b.channel
	} else {
		b.memPort = sim.NewResource(e, "memport")
	}
	return b
}

// Config returns the effective configuration (with defaults applied).
func (b *Bus) Config() Config { return b.cfg }

// CycleTime returns the duration of one bus cycle.
func (b *Bus) CycleTime() time.Duration { return b.cycle }

// Cycles converts a cycle count to virtual time.
func (b *Bus) Cycles(n int) time.Duration { return time.Duration(n) * b.cycle }

// WordsFor returns the number of bus words needed to carry n bytes.
func (b *Bus) WordsFor(n int) int { return (n + b.cfg.WordBytes - 1) / b.cfg.WordBytes }

// DMARead returns one DMA read transaction (an option card reading host
// memory — the transmit direction) of the given number of bytes: the
// bus occupancy as a transaction on the TURBOchannel, counted when it is
// issued. The board's DMA engines step it as continuations; a proc runs
// it with Do.
func (b *Bus) DMARead(bytes int) sim.Hold {
	words := b.WordsFor(bytes)
	b.stats.DMAReadTxns++
	b.stats.DMAReadWords += int64(words)
	return b.channel.Hold(b.Cycles(b.cfg.DMAReadOverhead + words))
}

// DMAWrite returns one DMA write transaction (an option card writing
// host memory — the receive direction).
func (b *Bus) DMAWrite(bytes int) sim.Hold {
	words := b.WordsFor(bytes)
	b.stats.DMAWriteTxns++
	b.stats.DMAWriteWords += int64(words)
	return b.channel.Hold(b.Cycles(b.cfg.DMAWriteOverhead + words))
}

// PIORead returns programmed-I/O reads of the given number of words by
// the host CPU from an option card (each word is its own transaction —
// this is why PIO reads across the TURBOchannel are so slow, §2.7).
func (b *Bus) PIORead(words int) sim.Hold {
	b.stats.PIOWords += int64(words)
	return b.channel.Hold(b.Cycles(b.cfg.PIOReadCycles * words))
}

// PIOWrite returns programmed-I/O writes of the given number of words
// by the host CPU to an option card.
func (b *Bus) PIOWrite(words int) sim.Hold {
	b.stats.PIOWords += int64(words)
	return b.channel.Hold(b.Cycles(b.cfg.PIOWriteCycles * words))
}

// MemCycles converts a memory-clock cycle count to virtual time.
func (b *Bus) MemCycles(n int) time.Duration { return time.Duration(n) * b.memCycle }

// CPUMemRead accounts one CPU-initiated memory read transaction (a cache
// line fill or uncached load) of the given number of words. On a
// serialized machine it occupies the TURBOchannel.
func (b *Bus) CPUMemRead(p *sim.Proc, words int) {
	b.stats.CPUMemWords += int64(words)
	b.memPort.Use(p, b.MemCycles(b.cfg.MemReadOverhead+words))
}

// CPUOccupy returns general CPU activity whose loads and stores occupy
// the memory path for d, as a transaction on the memory port — on a
// serialized machine this steals TURBOchannel bandwidth from DMA, and
// conversely DMA stretches the CPU's effective memory access time (§4:
// "memory writes and cache fills that result from CPU activity reduce
// DMA performance"). Host CPU work steps it as a continuation; a proc
// runs it with Do.
func (b *Bus) CPUOccupy(d time.Duration) sim.Hold { return b.memPort.Hold(d) }

// Stats returns a copy of the accumulated counters.
func (b *Bus) Stats() Stats { return b.stats }

// BusyTime returns total time the TURBOchannel was occupied.
func (b *Bus) BusyTime() time.Duration { return b.channel.BusyTime() }

// ResetStats zeroes counters and busy-time accounting.
func (b *Bus) ResetStats() {
	b.stats = Stats{}
	b.channel.ResetStats()
	if b.memPort != b.channel {
		b.memPort.ResetStats()
	}
}

// MaxDMAThroughputMbps returns the theoretical ceiling, in Mbps, for
// back-to-back DMA transactions of the given payload size — the
// arithmetic of §2.5.1, exposed for tests and reports.
func (b *Bus) MaxDMAThroughputMbps(bytes int, read bool) float64 {
	words := b.WordsFor(bytes)
	overhead := b.cfg.DMAWriteOverhead
	if read {
		overhead = b.cfg.DMAReadOverhead
	}
	busMbps := float64(b.cfg.ClockHz) * float64(b.cfg.WordBytes) * 8 / 1e6
	return float64(words) / float64(words+overhead) * busMbps
}
