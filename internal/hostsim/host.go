package hostsim

import (
	"slices"
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
	bufPool [][]byte           // scratch buffers for Checksum's data pass
	works   *sim.Pool[Work]    // records of the Work procs await
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
		works: sim.PoolOf[Work](e),
	}
	h.Int = newIntController(h)
	h.Kernel = m.NewSpace(prof.Name + "-kernel")
	return h
}

// Release returns the host's physical memory and its cache's line store
// to the OS, at teardown: any later access to either panics. Calling it
// again does nothing.
func (h *Host) Release() {
	h.Mem.Release()
	h.Cache.Release()
}

// Compute charges d of CPU time to p, serializing with other CPU users:
// the proc form of Work.
func (h *Host) Compute(p *sim.Proc, d time.Duration) { h.await(p, d) }

// await completes d of CPU work from proc p, in a pooled record set up
// in place.
func (h *Host) await(p *sim.Proc, d time.Duration) {
	if d <= 0 {
		return
	}
	w := h.works.Take()
	*w = Work{h: h, left: d}
	p.Await(w)
	h.works.Put(w)
}

// Work is a span of CPU work in continuation form, the one
// implementation of it: a proc awaits one through Compute, and the
// kernel's interrupt service and the driver's buffer set-up, which are
// state machines rather than procs, step one. It acquires the CPU, works,
// and releases the CPU. The profile's CPUMemTrafficRatio fraction of
// the work additionally occupies the memory path in ComputeChunk
// slices — each slice a CPU-only sleep, then a hold of the memory port
// — so on a serialized machine CPU activity steals bus bandwidth from
// concurrent DMA, and contended DMA stretches the CPU work in turn
// (§4). Step advances it with k as the continuation to wake, and
// reports whether it has finished.
type Work struct {
	h    *Host
	left time.Duration // work in slices not yet begun
	mem  time.Duration // the current slice's memory part
	port sim.Hold      // the memory-port hold in progress
	pc   uint8
}

// Work states.
const (
	workAcquire uint8 = iota // take the CPU
	workSlice                // begin the next slice: its CPU-only part
	workMem                  // the slice's memory part
	workPort                 // holding the memory port
	workDone
)

// Work returns d of CPU work; d <= 0 is no work, and takes no CPU.
func (h *Host) Work(d time.Duration) Work {
	if d <= 0 {
		return Work{pc: workDone}
	}
	return Work{h: h, left: d}
}

// Step advances the work: it returns false when k has been queued or
// scheduled (call Step again when k runs) and true once the work is
// done and the CPU released.
func (w *Work) Step(k sim.Cont) bool {
	h := w.h
	for {
		switch w.pc {
		case workAcquire:
			w.pc = workSlice
			if !h.CPU.AcquireCont(k) {
				return false
			}
		case workSlice:
			if w.left <= 0 {
				h.CPU.Release()
				w.pc = workDone
				return true
			}
			c := w.left
			if r := h.Prof.CPUMemTrafficRatio; r > 0 {
				chunk := h.Prof.ComputeChunk
				if chunk <= 0 {
					chunk = 2 * time.Microsecond
				}
				c = min(c, chunk)
				w.mem = time.Duration(float64(c) * r)
			}
			w.left -= c
			w.pc = workMem
			if cpuPart := c - w.mem; cpuPart > 0 {
				e := h.Eng
				if !e.WakeAt(e.Now().Add(cpuPart), k) {
					return false
				}
			}
		case workMem:
			w.pc = workSlice
			if w.mem > 0 {
				w.port, w.mem, w.pc = h.Bus.CPUOccupy(w.mem), 0, workPort
			}
		case workPort:
			if !w.port.Step(k) {
				return false
			}
			w.pc = workSlice
		default:
			return true
		}
	}
}

// CPUReadData reads the given physical segments through the data cache,
// charging the CPU touch cost (one cycle per word) plus bus transactions
// for every cache miss; on a serialized machine those transactions
// contend with DMA. It returns the bytes the CPU observed — stale bytes
// included, if the cache was stale (§2.3).
func (h *Host) CPUReadData(p *sim.Proc, segs []mem.PhysBuffer) []byte {
	return h.AppendCPUReadData(p, nil, segs)
}

// AppendCPUReadData is CPUReadData appending the observed bytes to dst,
// so a caller can read into storage it reuses. The read yields to price
// it, so dst must stay the caller's until it returns.
func (h *Host) AppendCPUReadData(p *sim.Proc, dst []byte, segs []mem.PhysBuffer) []byte {
	total := 0
	for _, seg := range segs {
		total += seg.Len
	}
	base := len(dst)
	out := slices.Grow(dst, total)[:base+total]
	line := h.Cache.LineSize()
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
//
// The bytes are read into a buffer from the host's pool, which the read
// holds across its yields, and summed before the ALU cost is charged,
// so the buffer is back in the pool by then.
func (h *Host) Checksum(p *sim.Proc, segs []mem.PhysBuffer) uint16 {
	var buf []byte
	if n := len(h.bufPool); n > 0 {
		buf, h.bufPool = h.bufPool[n-1], h.bufPool[:n-1]
	}
	data := h.AppendCPUReadData(p, buf[:0], segs)
	sum := InternetChecksum(data)
	h.bufPool = append(h.bufPool, data)
	words := (len(data) + 3) / 4
	h.Compute(p, h.Prof.Cycles(words*h.Prof.ChecksumCyclesPerWord))
	return sum
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
func (h *Host) WirePages(p *sim.Proc, n int, slow bool) { h.await(p, h.wireCost(n, slow)) }

// Wiring returns the CPU work of wiring n pages: the continuation form
// of WirePages.
func (h *Host) Wiring(n int, slow bool) Work { return h.Work(h.wireCost(n, slow)) }

// wireCost is the CPU time of wiring n pages.
func (h *Host) wireCost(n int, slow bool) time.Duration {
	cost := time.Duration(n) * h.Prof.WirePerPage
	if slow {
		cost *= time.Duration(h.Prof.WireSlowFactor)
	}
	return cost
}

// IntController dispatches board interrupts to registered handlers.
// Interrupts are level-triggered and coalescing: asserting a line that
// is already pending is a no-op, matching the OSIRIS receive-side
// "interrupt only on empty→non-empty transition" discipline (§2.1.2).
//
// Each interrupt's service is a state machine run by events, not a
// proc: it charges the kernel's service cost, re-arms the line, charges
// the handler's own cost and calls the handler. A line can be asserted
// again while its previous service is still charging the handler's
// cost, so two services of one line can be in progress at once; their
// records come from the engine's pool.
type IntController struct {
	host  *Host
	lines map[int]*irqLine
	svcs  *sim.Pool[irqService] // service records
}

// irqLine is one interrupt line's state.
type irqLine struct {
	cost    time.Duration // the handler's CPU cost
	handler func()
	pending bool
	count   int64
}

// irqService is one interrupt's service in progress.
type irqService struct {
	ic *IntController
	k  sim.Cont // (irqStep, the record)
	l  *irqLine
	w  Work
	pc uint8
}

// irqService states.
const (
	irqStart   uint8 = iota // the service begins
	irqKernel               // charging the kernel's interrupt service cost
	irqHandler              // charging the handler's cost
)

func newIntController(h *Host) *IntController {
	return &IntController{host: h, lines: make(map[int]*irqLine), svcs: sim.PoolOf[irqService](h.Eng)}
}

// line returns the state for an interrupt line, creating it on first use.
func (ic *IntController) line(n int) *irqLine {
	l := ic.lines[n]
	if l == nil {
		l = &irqLine{}
		ic.lines[n] = l
	}
	return l
}

// Handle registers the handler for an interrupt line: after the
// kernel's interrupt service overhead, cost more of CPU time is
// charged — the handler's own work — and then fn runs, in event
// context.
func (ic *IntController) Handle(line int, cost time.Duration, fn func()) {
	l := ic.line(line)
	l.cost, l.handler = cost, fn
}

// Assert raises an interrupt line. Safe to call from event context (the
// board's side). Its service starts at the current instant, through the
// event queue.
func (ic *IntController) Assert(line int) {
	l := ic.line(line)
	if l.pending {
		return
	}
	l.pending = true
	l.count++
	s := ic.svcs.Take()
	s.ic, s.k = ic, sim.Cont{Fn: irqStep, Arg: s}
	s.l, s.pc = l, irqStart
	e := ic.host.Eng
	e.AtCall(e.Now(), irqStep, s)
}

// irqStep is a service's event callback. Once the engine is shut down
// it does nothing, as a killed process would.
func irqStep(a any) {
	s := a.(*irqService)
	h := s.ic.host
	if h.Eng.Halted() {
		return
	}
	for {
		switch s.pc {
		case irqStart:
			s.w, s.pc = h.Work(h.Prof.InterruptCost), irqKernel
		case irqKernel:
			if !s.w.Step(s.k) {
				return
			}
			s.l.pending = false
			s.w, s.pc = h.Work(s.l.cost), irqHandler
		default:
			if !s.w.Step(s.k) {
				return
			}
			fn := s.l.handler
			s.l = nil
			s.ic.svcs.Put(s)
			if fn != nil {
				fn()
			}
			return
		}
	}
}

// Count returns how many times the line was asserted (not coalesced).
func (ic *IntController) Count(line int) int64 {
	if l := ic.lines[line]; l != nil {
		return l.count
	}
	return 0
}
