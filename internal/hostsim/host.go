package hostsim

import (
	"time"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Host assembles one workstation: CPU, memory, cache, TURBOchannel and
// interrupt controller, plus the kernel's address space.
type Host struct {
	Eng    *sim.Engine
	Prof   Profile
	Mem    *mem.Memory
	Cache  *cache.Cache
	Bus    *bus.Bus
	CPU    *sim.Resource
	Int    *IntController
	Kernel *mem.AddressSpace

	segPool [][]mem.PhysBuffer // scratch slices for per-PDU segment lists
}

// New builds a host from a profile. memPages sizes physical memory (0
// means 8192 pages = 32 MB at 4 KB pages).
func New(e *sim.Engine, prof Profile, memPages int) *Host {
	if memPages == 0 {
		memPages = 8192
	}
	m := mem.New(mem.Config{PageSize: prof.PageSize, Pages: memPages, Seed: 0x05121994})
	b := bus.New(e, prof.Bus)
	h := &Host{
		Eng:   e,
		Prof:  prof,
		Mem:   m,
		Cache: cache.New(m, cache.Config{Size: prof.CacheSize, LineSize: prof.CacheLine, Policy: prof.CachePolicy}),
		Bus:   b,
		CPU:   sim.NewResource(e, prof.Name+"-cpu"),
	}
	h.Int = newIntController(h)
	h.Kernel = m.NewSpace(prof.Name + "-kernel")
	return h
}

// Compute charges d of CPU time to p, serializing with other CPU users.
// The profile's CPUMemTrafficRatio fraction of the work additionally
// occupies the memory path in ComputeChunk slices, so on a serialized
// machine CPU activity steals bus bandwidth from concurrent DMA — and
// contended DMA stretches the CPU work in turn (§4).
func (h *Host) Compute(p *sim.Proc, d time.Duration) {
	if d <= 0 {
		return
	}
	r := h.Prof.CPUMemTrafficRatio
	if r <= 0 {
		h.CPU.Use(p, d)
		return
	}
	h.CPU.Acquire(p)
	chunk := h.Prof.ComputeChunk
	if chunk <= 0 {
		chunk = 2 * time.Microsecond
	}
	for d > 0 {
		c := chunk
		if c > d {
			c = d
		}
		memPart := time.Duration(float64(c) * r)
		if cpuPart := c - memPart; cpuPart > 0 {
			p.Sleep(cpuPart)
		}
		h.Bus.CPUOccupy(p, memPart)
		d -= c
	}
	h.CPU.Release()
}

// CPUReadData reads the given physical segments through the data cache,
// charging the CPU touch cost (one cycle per word) plus bus transactions
// for every cache miss; on a serialized machine those transactions
// contend with DMA. It returns the bytes the CPU observed — stale bytes
// included, if the cache was stale (§2.3).
func (h *Host) CPUReadData(p *sim.Proc, segs []mem.PhysBuffer) []byte {
	total := 0
	for _, seg := range segs {
		total += seg.Len
	}
	out := make([]byte, total)
	line := h.Cache.LineSize()
	base := 0
	for _, seg := range segs {
		buf := out[base : base+seg.Len]
		// Read line by line so misses are individually priced.
		for off := 0; off < seg.Len; {
			a := uint32(seg.Addr) + uint32(off)
			n := line - int(a)%line
			if n > seg.Len-off {
				n = seg.Len - off
			}
			_, misses := h.Cache.Read(mem.PhysAddr(a), buf[off:off+n])
			if misses > 0 {
				h.Bus.CPUMemRead(p, misses*(line/4))
			}
			off += n
		}
		words := (seg.Len + 3) / 4
		h.Compute(p, h.Prof.Cycles(words))
		base += seg.Len
	}
	return out
}

// GetSegs pops an empty physical-segment scratch slice for a per-PDU
// AppendPhysSegments call; PutSegs returns it (grown or not) to the pool.
// The cooperative scheduler only switches procs inside simulated
// operations, so a pop/use/push sequence never interleaves with another
// proc's even when the user of the slice blocks in between.
func (h *Host) GetSegs() []mem.PhysBuffer {
	if n := len(h.segPool); n > 0 {
		s := h.segPool[n-1]
		h.segPool = h.segPool[:n-1]
		return s[:0]
	}
	return make([]mem.PhysBuffer, 0, 16)
}

// PutSegs returns a slice obtained from GetSegs to the pool.
func (h *Host) PutSegs(s []mem.PhysBuffer) {
	h.segPool = append(h.segPool, s)
}

// CPUWriteData writes data to physical address pa through the cache,
// charging the CPU touch cost and write-through bus traffic.
func (h *Host) CPUWriteData(p *sim.Proc, pa mem.PhysAddr, data []byte) {
	h.Cache.Write(pa, data)
	words := (len(data) + 3) / 4
	h.Compute(p, h.Prof.Cycles(words))
	h.Bus.CPUMemWrite(p, words)
}

// InvalidateData performs an explicit cache invalidation of the given
// segments, charging one CPU cycle per 32-bit word (§2.3).
func (h *Host) InvalidateData(p *sim.Proc, segs []mem.PhysBuffer) {
	total := 0
	for _, seg := range segs {
		total += h.Cache.Invalidate(seg.Addr, seg.Len)
	}
	h.Compute(p, h.Prof.Cycles(total))
}

// Checksum computes the Internet checksum over the given physical
// segments as the CPU would: reading every word through the cache (with
// miss traffic) plus the ALU cost per word. It returns the 16-bit
// checksum over the bytes the CPU actually observed.
func (h *Host) Checksum(p *sim.Proc, segs []mem.PhysBuffer) uint16 {
	data := h.CPUReadData(p, segs)
	words := (len(data) + 3) / 4
	h.Compute(p, h.Prof.Cycles(words*h.Prof.ChecksumCyclesPerWord))
	return InternetChecksum(data)
}

// InternetChecksum is the RFC 1071 ones-complement sum over data.
func InternetChecksum(data []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// WirePages charges the cost of wiring n pages using the fast low-level
// primitive (§2.4); slow selects the heavyweight standard service.
func (h *Host) WirePages(p *sim.Proc, n int, slow bool) {
	cost := time.Duration(n) * h.Prof.WirePerPage
	if slow {
		cost *= time.Duration(h.Prof.WireSlowFactor)
	}
	h.Compute(p, cost)
}

// IntController dispatches board interrupts to registered handlers.
// Interrupts are level-triggered and coalescing: asserting a line that
// is already pending is a no-op, matching the OSIRIS receive-side
// "interrupt only on empty→non-empty transition" discipline (§2.1.2).
type IntController struct {
	host  *Host
	lines map[int]*irqLine
}

// irqLine is one interrupt line's state. Its service body is built once,
// when the line is first used, so dispatching an interrupt spawns a proc
// without allocating a closure.
type irqLine struct {
	host    *Host
	handler func(p *sim.Proc)
	pending bool
	count   int64
	body    func(p *sim.Proc)
}

func newIntController(h *Host) *IntController {
	return &IntController{host: h, lines: make(map[int]*irqLine)}
}

// line returns the state for an interrupt line, creating it on first use.
func (ic *IntController) line(n int) *irqLine {
	l := ic.lines[n]
	if l == nil {
		l = &irqLine{host: ic.host}
		l.body = l.service
		ic.lines[n] = l
	}
	return l
}

// service charges the kernel's interrupt service cost on the host CPU,
// re-arms the line, and runs the handler.
func (l *irqLine) service(p *sim.Proc) {
	l.host.Compute(p, l.host.Prof.InterruptCost)
	l.pending = false
	if l.handler != nil {
		l.handler(p)
	}
}

// Handle registers the handler for an interrupt line. The handler runs
// in proc context after the interrupt service overhead has been charged.
func (ic *IntController) Handle(line int, fn func(p *sim.Proc)) {
	ic.line(line).handler = fn
}

// Assert raises an interrupt line. Safe to call from event context (the
// board's side). The kernel's interrupt service cost is charged on the
// host CPU before the handler body runs.
func (ic *IntController) Assert(line int) {
	l := ic.line(line)
	if l.pending {
		return
	}
	l.pending = true
	l.count++
	ic.host.Eng.Go("irq", l.body)
}

// Count returns how many times the line was asserted (not coalesced).
func (ic *IntController) Count(line int) int64 {
	if l := ic.lines[line]; l != nil {
		return l.count
	}
	return 0
}

// ResetCounts zeroes the per-line assertion counters.
func (ic *IntController) ResetCounts() {
	for _, l := range ic.lines {
		l.count = 0
	}
}
