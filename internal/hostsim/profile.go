// Package hostsim models the host workstation: CPU cost accounting,
// interrupt dispatch, and the machine profiles of the paper's two
// platforms — the DECstation 5000/200 (25 MHz MIPS R3000) and the
// DEC 3000/600 (175 MHz Alpha).
//
// The profiles encode two kinds of constants. Hardware constants come
// straight from the paper (§2.1.2, §2.3, §2.5.1, §4): TURBOchannel
// cycle prices, the 75 µs interrupt service time, the 64 KB incoherent
// cache. Software path costs (driver and protocol per-PDU times) are
// calibrated so the simulated Table 1 latencies land on the published
// ones; the calibration is documented in EXPERIMENTS.md and each
// constant is annotated below.
package hostsim

import (
	"time"

	"repro/internal/bus"
	"repro/internal/cache"
)

// Profile describes one host machine model.
type Profile struct {
	Name string

	// CPUHz prices one CPU cycle.
	CPUHz int64

	// Bus is the TURBOchannel configuration, including whether CPU
	// memory traffic serializes with DMA (§2.7, §4).
	Bus bus.Config

	// CacheSize, CacheLine and CachePolicy configure the data cache.
	CacheSize   int
	CacheLine   int
	CachePolicy cache.CoherencePolicy

	// PageSize is the VM page size.
	PageSize int

	// InterruptCost is the kernel's interrupt service overhead
	// (75 µs on the DECstation, §2.1.2).
	InterruptCost time.Duration

	// ThreadDispatch is the cost of scheduling a driver thread from the
	// interrupt handler.
	ThreadDispatch time.Duration

	// DriverTxPerPDU / DriverRxPerPDU are the fixed driver costs per
	// PDU, excluding per-buffer work (calibrated).
	DriverTxPerPDU time.Duration
	DriverRxPerPDU time.Duration

	// DriverPerBuffer is the marginal driver cost of each physical
	// buffer descriptor beyond the first (§2.2: "the per-PDU processing
	// cost in the host driver increases with the number of physical
	// buffers").
	DriverPerBuffer time.Duration

	// ProtoSendPerPDU / ProtoRecvPerPDU are the UDP/IP processing costs
	// per PDU, excluding checksumming (calibrated from the paper's
	// 200 µs UDP/IP service time on the DECstation, §2.1.2).
	ProtoSendPerPDU time.Duration
	ProtoRecvPerPDU time.Duration

	// ChecksumCyclesPerWord is the ALU cost of the Internet checksum
	// per 32-bit word, on top of the memory traffic to fetch the data.
	ChecksumCyclesPerWord int

	// WirePerPage is the cost of wiring one page with the low-level
	// Mach primitive; WireSlowFactor multiplies it for the standard
	// vm_wire-style service the paper found "surprisingly" expensive
	// (§2.4).
	WirePerPage    time.Duration
	WireSlowFactor int

	// SyscallCost is one user/kernel protection boundary crossing (trap,
	// argument validation, return) — what an ADC bypasses on the data
	// path (§3.2).
	SyscallCost time.Duration

	// FbufTransfer is the cost of passing a *cached* fbuf across a
	// protection domain boundary: a reference hand-off, no mapping work
	// (§3.1).
	FbufTransfer time.Duration

	// FbufMapPerPage is the per-page cost of mapping an *uncached* fbuf
	// into a domain — the order-of-magnitude penalty cached fbufs avoid.
	FbufMapPerPage time.Duration

	// CopyPerPage is the per-page cost of a traditional cross-domain
	// data copy, the baseline both fbuf flavours beat.
	CopyPerPage time.Duration

	// SGMapPerEntry is the cost of installing one scatter/gather map
	// entry for virtual-address DMA (§2.2: on machines like the RISC
	// System/6000 and DEC 3000, "it may be necessary to update the map
	// for each individual message", so fragmentation remains a concern).
	SGMapPerEntry time.Duration

	// CPUMemTrafficRatio is the fraction of general CPU busy time whose
	// loads/stores occupy the memory path. On the DECstation every
	// memory transaction occupies the TURBOchannel, so CPU work directly
	// steals DMA bandwidth (§4); on the crossbar Alpha it is 0.
	CPUMemTrafficRatio float64

	// ComputeChunk is the granularity at which CPU work interleaves
	// with the memory path (default 2µs).
	ComputeChunk time.Duration
}

// CycleTime returns the duration of one CPU cycle.
func (p Profile) CycleTime() time.Duration {
	return time.Duration(int64(time.Second) / p.CPUHz)
}

// Cycles converts a CPU cycle count into time.
func (p Profile) Cycles(n int) time.Duration { return time.Duration(n) * p.CycleTime() }

// DEC5000_200 models the DECstation 5000/200: 25 MHz R3000, serialized
// TURBOchannel/memory, 64 KB incoherent write-through cache, 75 µs
// interrupts.
//
// Calibration targets (Table 1, §4): ATM RTT 353 µs at 1 byte, UDP/IP
// RTT 598 µs; UDP/IP service time ≈ 200 µs/PDU; CPU-touched receive
// throughput ≈ 80 Mbps.
func DEC5000_200() Profile {
	return Profile{
		Name:  "DEC5000/200",
		CPUHz: 25_000_000,
		Bus: bus.Config{
			ClockHz:    25_000_000,
			Serialized: true,
			// The R3000's miss penalty across the shared path was severe;
			// this overhead, with the serialized-bus contention, yields
			// the ~80 Mbps CPU-touched ceiling of §4.
			MemReadOverhead: 14,
		},
		CacheSize:   64 * 1024,
		CacheLine:   16,
		CachePolicy: cache.Incoherent,
		PageSize:    4096,

		InterruptCost:  75 * time.Microsecond, // §2.1.2, measured
		ThreadDispatch: 6 * time.Microsecond,

		DriverTxPerPDU:  12 * time.Microsecond,
		DriverRxPerPDU:  16 * time.Microsecond,
		DriverPerBuffer: 6 * time.Microsecond,

		ProtoSendPerPDU: 60 * time.Microsecond,
		ProtoRecvPerPDU: 62 * time.Microsecond,

		ChecksumCyclesPerWord: 2,

		WirePerPage:    4 * time.Microsecond,
		WireSlowFactor: 8,

		SyscallCost:    20 * time.Microsecond,
		FbufTransfer:   8 * time.Microsecond,
		FbufMapPerPage: 90 * time.Microsecond,
		CopyPerPage:    170 * time.Microsecond,
		SGMapPerEntry:  3 * time.Microsecond,

		CPUMemTrafficRatio: 0.75,
		ComputeChunk:       2 * time.Microsecond,
	}
}

// DEC3000_600 models the DEC 3000/600: 175 MHz Alpha, buffered crossbar
// (DMA concurrent with cache traffic), DMA-coherent cache.
//
// Calibration targets (Table 1, §4): ATM RTT 154 µs at 1 byte, UDP/IP
// RTT 316 µs; receive throughput approaching the 516 Mbps link limit,
// 438 Mbps with checksumming.
func DEC3000_600() Profile {
	return Profile{
		Name:  "DEC3000/600",
		CPUHz: 175_000_000,
		Bus: bus.Config{
			// The TURBOchannel itself still runs at 25 MHz; the crossbar
			// decouples it from CPU/memory traffic, and the private
			// memory port is much faster.
			ClockHz:         25_000_000,
			MemClockHz:      100_000_000,
			Serialized:      false,
			MemReadOverhead: 4,
		},
		CacheSize:   2 * 1024 * 1024, // 2 MB board-level cache
		CacheLine:   32,
		CachePolicy: cache.DMAUpdate,
		PageSize:    4096, // the OSF/1 Alpha used 8 KB; 4 KB keeps workloads comparable

		InterruptCost:  20 * time.Microsecond,
		ThreadDispatch: 8 * time.Microsecond,

		DriverTxPerPDU:  9 * time.Microsecond,
		DriverRxPerPDU:  14 * time.Microsecond,
		DriverPerBuffer: 1500 * time.Nanosecond,

		ProtoSendPerPDU: 36 * time.Microsecond,
		ProtoRecvPerPDU: 40 * time.Microsecond,

		ChecksumCyclesPerWord: 8,

		WirePerPage:    800 * time.Nanosecond,
		WireSlowFactor: 8,

		SyscallCost:    5 * time.Microsecond,
		FbufTransfer:   2 * time.Microsecond,
		FbufMapPerPage: 22 * time.Microsecond,
		CopyPerPage:    30 * time.Microsecond,
		SGMapPerEntry:  600 * time.Nanosecond,

		CPUMemTrafficRatio: 0,
		ComputeChunk:       2 * time.Microsecond,
	}
}
