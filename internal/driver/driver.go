// Package driver implements the OSIRIS host device driver (§2).
//
// One Driver instance manages one queue-page channel of a board: the
// kernel's device driver runs over channel 0, and an application device
// channel's user-level "channel driver" (§3.2) is another instance of
// the same code over a different channel — exactly the paper's
// structure, where the ADC driver "performs essentially the same
// functions as the in-kernel OSIRIS device driver".
//
// The driver implements the paper's engineering decisions:
//
//   - lock-free descriptor rings with shadowed pointers (§2.1.1);
//   - transmit completion detected by tail-pointer advance during other
//     driver activity, with interrupts only for the full-queue /
//     half-empty flow-control protocol (§2.1.2);
//   - receive processing driven by one interrupt per burst, a thread
//     that drains the receive ring and replenishes the free ring;
//   - physical-buffer chains built from messages' scattered pages, with
//     page wiring on the transmit path (§2.2, §2.4);
//   - eager or lazy cache invalidation for received data (§2.3).
package driver

import (
	"fmt"
	"time"

	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/dpm"
	"repro/internal/hostsim"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/queue"
	"repro/internal/sim"
)

// CachePolicy selects how the driver keeps the data cache coherent with
// received DMA data on machines without hardware coherence (§2.3).
type CachePolicy int

const (
	// CacheEager invalidates the cache for every received buffer before
	// delivery — safe and slow (the "cache invalidated" curve of Fig. 2).
	CacheEager CachePolicy = iota
	// CacheLazy delivers without invalidation and relies on protocol
	// error detection plus RecoverData for the rare stale case.
	CacheLazy
	// CacheNone performs no invalidation and no recovery bookkeeping —
	// for hardware-coherent machines (DEC 3000).
	CacheNone
)

func (c CachePolicy) String() string {
	switch c {
	case CacheEager:
		return "eager"
	case CacheLazy:
		return "lazy"
	default:
		return "none"
	}
}

// Config configures a Driver.
type Config struct {
	// ChannelIndex selects the board queue-page channel (0 = kernel).
	ChannelIndex int
	// RxBufBytes is the receive buffer size (default 16 KB, §2.3).
	RxBufBytes int
	// RxBufCount is how many receive buffers circulate (default 63,
	// filling the 64-slot free ring).
	RxBufCount int
	// ReserveBufs is the pool of spare buffers used to replenish the
	// free ring while popped buffers are being processed (default 8).
	ReserveBufs int
	// Cache selects the invalidation policy for received data.
	Cache CachePolicy
	// SlowWiring uses the heavyweight page-wiring service (the §2.4
	// "surprisingly high overhead" ablation).
	SlowWiring bool
	// PagedRxBufs restricts receive buffers to single pages instead of
	// physically contiguous 16 KB regions — the §2.2 receive-side
	// fragmentation ablation.
	PagedRxBufs bool
	// Space is the address space the driver allocates buffers in
	// (default the host kernel space).
	Space *mem.AddressSpace
	// VirtualDMA models a host with a hardware scatter/gather map
	// (§2.2): the driver installs one map entry per page of each
	// outgoing message, after which the adaptor sees the buffer as
	// virtually contiguous — saving the per-physical-buffer descriptor
	// handling but paying the per-entry map update on every message.
	VirtualDMA bool
	// BufferFrames, when set, supplies the receive buffers' backing
	// frames explicitly: one physically contiguous run per buffer. An
	// application device channel's user-level driver must draw its
	// buffers from the frames the OS authorized for the channel (§3.2),
	// so it cannot allocate from the global pool. Overrides RxBufBytes /
	// RxBufCount sizing (each run is one buffer; ReserveBufs of the runs
	// are held back as the replenishment reserve).
	BufferFrames [][]mem.Frame
}

// Stats counts driver activity.
type Stats struct {
	TxPDUs        int64
	TxBuffers     int64 // physical buffers queued for transmit
	RxPDUs        int64
	RxBuffers     int64
	TxStalls      int64 // full-ring waits
	RxAborted     int64 // partial PDUs discarded on a board abort marker
	RxChecksumErr int64
	Recoveries    int64 // lazy-invalidation recoveries performed
	SGMapEntries  int64 // scatter/gather map entries installed (VirtualDMA)
}

// Handler receives an inbound PDU for a path. The message views the
// driver's receive buffers; it and every view derived from it are valid
// until the handler returns, unless the handler Retains it.
type Handler func(p *sim.Proc, m *msg.Message)

// Completion is told when a sent PDU's transmission has completed (the
// tail pointer passed its descriptors). Layers that keep one record per
// PDU in flight implement it on that record, so a send costs no closure.
type Completion interface {
	TxDone(p *sim.Proc)
}

// Path is a connection's binding to a VCI (§3.1: "each path is bound to
// an unused VCI by the device driver").
type Path struct {
	VCI     atm.VCI
	handler Handler
}

// txPending tracks one transmitted PDU awaiting completion (tail
// advance past its descriptors).
type txPending struct {
	descs int
	m     *msg.Message
	done  Completion
}

// rxBuffer is one receive buffer owned by the driver.
type rxBuffer struct {
	va    mem.VirtAddr
	pa    mem.PhysAddr
	size  int
	space *mem.AddressSpace
}

// mutex is a cooperative lock for the simulation world: the descriptor
// rings are strictly one-reader-one-writer (§2.1.1), so when several
// host threads share the driver, the driver itself must serialize its
// side of each ring — exactly what the in-kernel driver's locking did.
type mutex struct {
	held bool
	cond *sim.Cond
}

func newMutex(e *sim.Engine) *mutex { return &mutex{cond: sim.NewCond(e)} }

func (m *mutex) lock(p *sim.Proc) { p.Await(m) }

// Step takes the lock and reports true if it is free; otherwise it
// queues k to be woken by an unlock and reports false: the
// continuation form of lock, to be called again when k runs.
func (m *mutex) Step(k sim.Cont) bool {
	if m.held {
		m.cond.WaitCont(k)
		return false
	}
	m.held = true
	return true
}

func (m *mutex) unlock() {
	m.held = false
	m.cond.Signal()
}

// Driver is the host-side driver for one board channel.
type Driver struct {
	host *hostsim.Host
	b    *board.Board
	ch   *board.Channel
	cfg  Config

	paths map[atm.VCI]*Path

	// Transmit side. pending is a ring: pendHead is its oldest entry
	// and pendLen its length.
	pending   []txPending
	pendHead  int
	pendLen   int
	lastTail  uint32
	txCredits int // descriptors known consumed but not yet matched
	txCond    *sim.Cond
	txMu      *mutex // serializes the host's writer side of the tx ring

	// Receive side.
	byPA    map[mem.PhysAddr]*rxBuffer
	bufSlab []rxBuffer // backing store for all rxBuffers, sized up front
	reserve []*rxBuffer
	frames  []mem.Frame // scratch for carving a buffer's frame run
	rxCond  *sim.Cond
	freeMu  *mutex       // serializes the host's writer side of the free ring
	partial []queue.Desc // descs of the PDU being accumulated

	setup rxSetup // the buffer pool's set-up, run once by New

	// Delivery scratch, reused by every PDU: the fragments and buffers
	// of the PDU being delivered, and the message handed to the handler
	// (nil after a Retain took it; the next delivery takes a spare).
	rxFrags []msg.Fragment
	rxBufs  []*rxBuffer
	rxMsg   *msg.Message

	// Buffer retention (fragment reassembly above the driver). A
	// retained message keeps a copy of its buffer list; Release returns
	// both to the spares.
	currentMsg *msg.Message
	currentCE  bool // the PDU being delivered carried a fabric CE mark
	retainFlag bool
	retained   map[*msg.Message][]*rxBuffer
	spareMsgs  []*msg.Message
	spareBufs  [][]*rxBuffer

	stats Stats
	trk   string // trace track label, precomputed so Emit never concatenates
}

// New builds a driver over the given channel of b, allocates and wires
// its receive buffer pool, fills the free ring, registers interrupt
// handlers, and starts the receive thread.
func New(e *sim.Engine, h *hostsim.Host, b *board.Board, cfg Config) *Driver {
	if cfg.RxBufBytes == 0 {
		cfg.RxBufBytes = 16 * 1024
	}
	if cfg.PagedRxBufs {
		cfg.RxBufBytes = h.Mem.PageSize()
	}
	if cfg.RxBufCount == 0 {
		cfg.RxBufCount = 63
	}
	if cfg.ReserveBufs == 0 {
		cfg.ReserveBufs = 8
	}
	if cfg.Space == nil {
		cfg.Space = h.Kernel
	}
	// The buffer pool's size is known now; carve the Go-side structures
	// here, at construction, so the set-up's simulated work (wiring,
	// ring pushes) does not interleave with host-heap growth. Purely a
	// host-side allocation move — the simulated timeline is unchanged.
	total := cfg.RxBufCount + cfg.ReserveBufs
	if cfg.BufferFrames != nil {
		total = len(cfg.BufferFrames)
	}
	d := &Driver{
		host:     h,
		b:        b,
		ch:       b.Channel(cfg.ChannelIndex),
		cfg:      cfg,
		paths:    make(map[atm.VCI]*Path),
		byPA:     make(map[mem.PhysAddr]*rxBuffer, total),
		bufSlab:  make([]rxBuffer, 0, total),
		reserve:  make([]*rxBuffer, 0, cfg.ReserveBufs+1),
		txCond:   sim.NewCond(e),
		rxCond:   sim.NewCond(e),
		txMu:     newMutex(e),
		freeMu:   newMutex(e),
		retained: make(map[*msg.Message][]*rxBuffer),
		trk:      fmt.Sprintf("%s-drv%d", b.Config().Name, cfg.ChannelIndex),
	}
	h.Int.Handle(board.RxIRQBase+cfg.ChannelIndex, h.Prof.ThreadDispatch, d.rxCond.Broadcast)
	h.Int.Handle(board.TxIRQBase+cfg.ChannelIndex, 0, d.txCond.Broadcast)

	d.setup = rxSetup{d: d, total: total}
	e.AtCall(e.Now(), rxSetupStep, &d.setup)
	e.Go(fmt.Sprintf("driver-ch%d-rx", cfg.ChannelIndex), d.rxThread)
	return d
}

// rxSetup initializes the channel's rings and sets up the receive
// buffer pool: it carves and wires each buffer, queues all but the
// reserve on the free ring, and kicks the board. It is a state machine
// run by events, not a proc; rxSetupStep is its one event callback.
type rxSetup struct {
	d     *Driver
	total int // buffers to set up
	i     int // buffers set up so far
	buf   *rxBuffer
	rings int // rings initialized so far
	op    queue.Op
	w     hostsim.Work
	pc    uint8
}

// rxSetup states.
const (
	setupRing  uint8 = iota // initialize the next ring
	setupInit               // in Ring.Init
	setupCarve              // carve the next buffer
	setupWire               // wiring its pages
	setupLock               // take freeMu
	setupPush               // queue it on the free ring
)

// rxSetupStep is the set-up's event callback. Once the engine is shut
// down it does nothing, as a killed process would.
func rxSetupStep(a any) {
	s := a.(*rxSetup)
	if s.d.host.Eng.Halted() {
		return
	}
	s.run()
}

func (s *rxSetup) run() {
	d := s.d
	k := sim.Cont{Fn: rxSetupStep, Arg: s}
	for {
		switch s.pc {
		case setupRing:
			rings := [...]*queue.Ring{d.ch.TxRing, d.ch.FreeRing, d.ch.RecvRing}
			if s.rings == len(rings) {
				s.pc = setupCarve
				continue
			}
			s.op.Init(rings[s.rings], dpm.Host)
			s.rings++
			s.pc = setupInit
		case setupInit:
			if !s.op.Step(k) {
				return
			}
			s.pc = setupRing
		case setupCarve:
			if s.i == s.total {
				d.b.KickFree()
				return
			}
			pages := 0
			if d.cfg.BufferFrames != nil {
				s.buf, pages = d.adoptRxBuffer(d.cfg.BufferFrames[s.i])
			} else {
				s.buf, pages = d.allocRxBuffer()
			}
			s.w = d.host.Wiring(pages, d.cfg.SlowWiring)
			s.pc = setupWire
		case setupWire:
			if !s.w.Step(k) {
				return
			}
			if s.i < s.total-d.cfg.ReserveBufs {
				s.pc = setupLock
			} else {
				s.done(false)
			}
		case setupLock:
			if !d.freeMu.Step(k) {
				return
			}
			s.op.Push(d.ch.FreeRing, dpm.Host, queue.Desc{Addr: s.buf.pa, Len: uint32(s.buf.size)})
			s.pc = setupPush
		case setupPush:
			if !s.op.Step(k) {
				return
			}
			d.freeMu.unlock()
			s.done(s.op.OK())
		}
	}
}

// done finishes the buffer being set up: pushed onto the free ring, or
// else held in the reserve.
func (s *rxSetup) done(pushed bool) {
	if !pushed {
		s.d.reserve = append(s.d.reserve, s.buf)
	}
	s.buf = nil
	s.i++
	s.pc = setupCarve
}

// allocRxBuffer carves one receive buffer: physically contiguous (the
// driver's default, possible because the kernel controls these pages)
// unless PagedRxBufs restricts it to a single page (§2.2). It returns
// the buffer and its page count; the pages are wired once, up front —
// they live on the DMA path forever — and the caller charges the
// wiring.
func (d *Driver) allocRxBuffer() (*rxBuffer, int) {
	m := d.host.Mem
	pages := (d.cfg.RxBufBytes + m.PageSize() - 1) / m.PageSize()
	frames, err := m.AppendContiguous(d.frames[:0], pages)
	if err != nil {
		panic("driver: out of contiguous memory for receive buffers: " + err.Error())
	}
	d.frames = frames
	buf := d.mapRxBuffer(frames)
	buf.size = d.cfg.RxBufBytes
	return buf, pages
}

// adoptRxBuffer registers a caller-supplied contiguous frame run as one
// receive buffer, as allocRxBuffer does a carved one.
func (d *Driver) adoptRxBuffer(frames []mem.Frame) (*rxBuffer, int) {
	for i := 1; i < len(frames); i++ {
		if frames[i] != frames[i-1]+1 {
			panic("driver: BufferFrames run not physically contiguous")
		}
	}
	buf := d.mapRxBuffer(frames)
	buf.size = len(frames) * d.host.Mem.PageSize()
	return buf, len(frames)
}

// mapRxBuffer maps a contiguous frame run in the driver's space, wires
// its frames and registers it as a receive buffer, whose size the
// caller sets.
func (d *Driver) mapRxBuffer(frames []mem.Frame) *rxBuffer {
	m := d.host.Mem
	va, err := d.cfg.Space.MapFrames(frames)
	if err != nil {
		panic(err)
	}
	for _, f := range frames {
		m.Wire(f)
	}
	buf := d.newRxBuffer()
	buf.va = va
	buf.pa = m.FrameAddr(frames[0])
	buf.space = d.cfg.Space
	d.byPA[buf.pa] = buf
	return buf
}

// newRxBuffer hands out the next slot of the preallocated slab (the
// construction-time sizing covers every buffer the set-up creates),
// falling back to the heap otherwise. Callers fill the fields in place —
// passing a composite literal would defeat the slab, since the escaping
// fallback path forces the literal itself onto the heap.
func (d *Driver) newRxBuffer() *rxBuffer {
	if len(d.bufSlab) < cap(d.bufSlab) {
		d.bufSlab = d.bufSlab[:len(d.bufSlab)+1]
		return &d.bufSlab[len(d.bufSlab)-1]
	}
	return new(rxBuffer)
}

// Space returns the address space the driver's buffers live in.
func (d *Driver) Space() *mem.AddressSpace { return d.cfg.Space }

// Stats returns a copy of the counters.
func (d *Driver) Stats() Stats { return d.stats }

// RegisterMetrics registers the driver's counters as snapshot-time
// samples under prefix — notably tx_reclaim_stalls, the full-ring
// waits the paper's §2.1.2 flow-control protocol exists to bound. A
// nil registry is a no-op.
func (d *Driver) RegisterMetrics(r *metrics.Registry, prefix string) {
	if r == nil {
		return
	}
	s := &d.stats
	r.Sample(prefix+"/tx_pdus", metrics.KindCounter, func() int64 { return s.TxPDUs })
	r.Sample(prefix+"/tx_buffers", metrics.KindCounter, func() int64 { return s.TxBuffers })
	r.Sample(prefix+"/rx_pdus", metrics.KindCounter, func() int64 { return s.RxPDUs })
	r.Sample(prefix+"/rx_buffers", metrics.KindCounter, func() int64 { return s.RxBuffers })
	r.Sample(prefix+"/tx_reclaim_stalls", metrics.KindCounter, func() int64 { return s.TxStalls })
	r.Sample(prefix+"/rx_aborted", metrics.KindCounter, func() int64 { return s.RxAborted })
	r.Sample(prefix+"/rx_checksum_err", metrics.KindCounter, func() int64 { return s.RxChecksumErr })
	r.Sample(prefix+"/recoveries", metrics.KindCounter, func() int64 { return s.Recoveries })
	r.Sample(prefix+"/sg_map_entries", metrics.KindCounter, func() int64 { return s.SGMapEntries })
}

// ResetStats zeroes the counters.
func (d *Driver) ResetStats() { d.stats = Stats{} }

// Board returns the board this driver drives.
func (d *Driver) Board() *board.Board { return d.b }

// Host returns the host.
func (d *Driver) Host() *hostsim.Host { return d.host }

// OpenPath binds a VCI to a handler, establishing a path through the
// adaptor for one connection (§3.1).
func (d *Driver) OpenPath(vci atm.VCI, h Handler) *Path {
	pt := &Path{VCI: vci, handler: h}
	d.paths[vci] = pt
	d.b.BindVCI(vci, d.cfg.ChannelIndex)
	return pt
}

// ClosePath releases a path's VCI.
func (d *Driver) ClosePath(pt *Path) {
	delete(d.paths, pt.VCI)
	d.b.UnbindVCI(pt.VCI)
}

// SetHandler replaces a path's handler.
func (pt *Path) SetHandler(h Handler) { pt.handler = h }

// Send queues a message for transmission on a path and returns once all
// its descriptors are queued (not when transmission completes; pass a
// Completion for that, e.g. to free header buffers, or nil). The driver
// holds m until then: its pages are wired for the DMA and unwired at
// completion (§2.4), just before done runs.
func (d *Driver) Send(p *sim.Proc, pt *Path, m *msg.Message, done Completion) error {
	segs, err := m.AppendPhysSegments(d.host.GetSegs())
	if err != nil {
		d.host.PutSegs(segs)
		return err
	}
	if len(segs) == 0 {
		d.host.PutSegs(segs)
		return fmt.Errorf("driver: empty message")
	}
	if err := m.WireAll(); err != nil {
		d.host.PutSegs(segs)
		return err
	}
	pages := 0
	for _, f := range m.Fragments() {
		pages += (f.Len + d.host.Mem.PageSize() - 1) / d.host.Mem.PageSize()
	}
	if d.cfg.VirtualDMA {
		// One map entry per page, then the adaptor sees one buffer; the
		// per-physical-buffer driver cost disappears but the map update
		// is paid on every message (§2.2).
		d.host.Compute(p, d.host.Prof.DriverTxPerPDU+time.Duration(pages)*d.host.Prof.SGMapPerEntry)
		d.host.Bus.PIOWrite(2 * pages).Do(p)
		d.stats.SGMapEntries += int64(pages)
	} else {
		d.host.Compute(p, d.host.Prof.DriverTxPerPDU+time.Duration(len(segs)-1)*d.host.Prof.DriverPerBuffer)
	}
	d.host.WirePages(p, pages, d.cfg.SlowWiring)

	d.txMu.lock(p)
	for i, seg := range segs {
		desc := queue.Desc{Addr: seg.Addr, Len: uint32(seg.Len), VCI: pt.VCI}
		if i == len(segs)-1 {
			desc.Flags = queue.FlagEOP
		}
		for !d.ch.TxRing.TryPush(p, dpm.Host, desc) {
			// Full transmit queue: reclaim opportunistically, then fall
			// back to the notify/half-empty interrupt protocol (§2.1.2).
			d.reclaimLocked(p)
			if !d.ch.TxRing.WriterFull(p, dpm.Host) {
				continue
			}
			d.stats.TxStalls++
			if eng := d.host.Eng; eng.Recording() {
				eng.Emit(sim.TraceEvent{At: eng.Now(), Ph: 'i', Comp: d.trk, Cat: sim.CatDrv, Name: "tx-ring-full", Arg: int64(desc.VCI)})
			}
			d.b.DPM.WriteWord(p, dpm.Host, d.ch.NotifyFlagOff(), 1)
			d.b.KickTx()
			d.txCond.Wait(p)
			d.reclaimLocked(p)
		}
	}
	d.stats.TxPDUs++
	d.stats.TxBuffers += int64(len(segs))
	d.pushPending(txPending{descs: len(segs), m: m, done: done})
	d.b.KickTx()
	// Transmit-complete detection piggybacks on other driver activity.
	d.reclaimLocked(p)
	d.txMu.unlock()
	d.host.PutSegs(segs)
	return nil
}

// reclaim observes the transmit ring's tail and retires completed PDUs:
// unwiring their pages and running completion callbacks. This is the
// §2.1.2 "checks for this condition as part of other driver activity".
func (d *Driver) reclaim(p *sim.Proc) {
	d.txMu.lock(p)
	d.reclaimLocked(p)
	d.txMu.unlock()
}

func (d *Driver) reclaimLocked(p *sim.Proc) {
	tail := d.ch.TxRing.ObserveTail(p, dpm.Host)
	delta := int(tail-d.lastTail) % d.ch.TxRing.Slots()
	if delta < 0 {
		delta += d.ch.TxRing.Slots()
	}
	d.lastTail = tail
	d.txCredits += delta
	for d.pendLen > 0 && d.txCredits >= d.pending[d.pendHead].descs {
		ent := d.pending[d.pendHead]
		d.pending[d.pendHead] = txPending{}
		d.pendHead = (d.pendHead + 1) % len(d.pending)
		d.pendLen--
		d.txCredits -= ent.descs
		if err := ent.m.UnwireAll(); err != nil {
			panic(err)
		}
		if ent.done != nil {
			ent.done.TxDone(p)
		}
	}
}

// pushPending appends a sent PDU to the pending ring, doubling the ring
// when it is full.
func (d *Driver) pushPending(ent txPending) {
	if d.pendLen == len(d.pending) {
		grown := make([]txPending, max(8, 2*len(d.pending)))
		for i := 0; i < d.pendLen; i++ {
			grown[i] = d.pending[(d.pendHead+i)%len(d.pending)]
		}
		d.pending, d.pendHead = grown, 0
	}
	d.pending[(d.pendHead+d.pendLen)%len(d.pending)] = ent
	d.pendLen++
}

// Flush blocks until every queued PDU has completed transmission.
func (d *Driver) Flush(p *sim.Proc) {
	for d.pendLen > 0 {
		d.reclaim(p)
		if d.pendLen > 0 {
			p.Sleep(5 * time.Microsecond)
		}
	}
}

// rxThread is the driver's receive thread: woken by the (single per
// burst) receive interrupt, it repeatedly removes a filled buffer from
// the receive queue, adds a fresh free buffer, and initiates processing
// (§2.1.1).
func (d *Driver) rxThread(p *sim.Proc) {
	for {
		processed := false
		for {
			desc, ok := d.ch.RecvRing.TryPop(p, dpm.Host)
			if !ok {
				break
			}
			processed = true
			if desc.Flags&queue.FlagErr != 0 {
				// Abort marker: the board abandoned a PDU after part of it
				// had already streamed up (reassembly timeout or late
				// error). The marker carries no buffer; the partial
				// delivery's buffers go back to the reserve pool.
				d.abortPartial(desc.VCI)
				continue
			}
			d.stats.RxBuffers++
			// Replenish the free queue immediately.
			if len(d.reserve) > 0 {
				rb := d.reserve[len(d.reserve)-1]
				d.reserve = d.reserve[:len(d.reserve)-1]
				d.freeMu.lock(p)
				pushed := d.ch.FreeRing.TryPush(p, dpm.Host, queue.Desc{Addr: rb.pa, Len: uint32(rb.size)})
				d.freeMu.unlock()
				if pushed {
					d.b.KickFree()
				} else {
					d.reserve = append(d.reserve, rb)
				}
			}
			d.partial = append(d.partial, desc)
			if desc.Flags&queue.FlagEOP != 0 {
				d.deliverPDU(p, d.partial)
				d.partial = d.partial[:0]
			}
		}
		if processed {
			// Opportunistic transmit reclaim while we're here.
			d.reclaim(p)
		}
		d.rxCond.Wait(p)
	}
}

// abortPartial discards the in-progress partial PDU in response to a
// board abort marker, returning its buffers to the reserve pool — the
// driver-side half of graceful degradation: no received-buffer leak, no
// handler invocation for a PDU the board could not finish.
func (d *Driver) abortPartial(vci atm.VCI) {
	d.stats.RxAborted++
	if eng := d.host.Eng; eng.Recording() {
		eng.Emit(sim.TraceEvent{At: eng.Now(), Ph: 'i', Comp: d.trk, Cat: sim.CatDrv, Name: "rx-abort", Arg: int64(vci)})
	}
	for _, desc := range d.partial {
		rb := d.byPA[desc.Addr]
		if rb == nil {
			panic(fmt.Sprintf("driver: abort marker over unknown buffer %#x", uint32(desc.Addr)))
		}
		d.reserve = append(d.reserve, rb)
	}
	d.partial = d.partial[:0]
}

// deliverPDU assembles a message view over the received buffers, applies
// the cache policy, and hands it up the bound path. The buffers return
// to the reserve pool when the handler finishes, unless it retained the
// message.
func (d *Driver) deliverPDU(p *sim.Proc, descs []queue.Desc) {
	d.stats.RxPDUs++
	if eng := d.host.Eng; eng.Recording() {
		eng.Emit(sim.TraceEvent{At: eng.Now(), Ph: 'i', Comp: d.trk, Cat: sim.CatPDU, Name: "deliver", Arg: int64(descs[len(descs)-1].VCI)})
	}
	d.host.Compute(p, d.host.Prof.DriverRxPerPDU+time.Duration(len(descs)-1)*d.host.Prof.DriverPerBuffer)

	frags, bufs := d.rxFrags[:0], d.rxBufs[:0]
	ce := false
	for _, desc := range descs {
		if desc.Flags&queue.FlagCE != 0 {
			ce = true
		}
		rb := d.byPA[desc.Addr]
		if rb == nil {
			panic(fmt.Sprintf("driver: received descriptor for unknown buffer %#x", uint32(desc.Addr)))
		}
		bufs = append(bufs, rb)
		if desc.Len > 0 {
			frags = append(frags, msg.Fragment{Space: rb.space, VA: rb.va, Len: int(desc.Len)})
		}
		if d.cfg.Cache == CacheEager && desc.Len > 0 {
			d.host.InvalidateData(p, []mem.PhysBuffer{{Addr: desc.Addr, Len: int(desc.Len)}})
		}
	}
	d.rxFrags, d.rxBufs = frags, bufs
	if d.rxMsg == nil {
		d.rxMsg = d.spareMsg()
	}
	m := d.rxMsg.SetFragments(frags...)
	pt := d.paths[descs[len(descs)-1].VCI]
	d.currentMsg, d.currentCE, d.retainFlag = m, ce, false
	if pt != nil && pt.handler != nil {
		pt.handler(p, m)
	}
	if d.retainFlag {
		// The retaining layer now owns m and the buffers; the next
		// delivery takes another message.
		var held []*rxBuffer
		if n := len(d.spareBufs); n > 0 {
			held, d.spareBufs = d.spareBufs[n-1], d.spareBufs[:n-1]
		}
		d.retained[m] = append(held, bufs...)
		d.rxMsg = nil
	} else {
		// Handler done: recycle the buffers.
		d.reserve = append(d.reserve, bufs...)
	}
	d.currentMsg, d.currentCE, d.retainFlag = nil, false, false
}

// spareMsg returns a message for the next delivery: one a Release gave
// back, or a new one.
func (d *Driver) spareMsg() *msg.Message {
	if n := len(d.spareMsgs); n > 0 {
		m := d.spareMsgs[n-1]
		d.spareMsgs = d.spareMsgs[:n-1]
		return m
	}
	return new(msg.Message)
}

// CEMarked, called from within a path handler, reports whether the PDU
// being delivered carried the fabric's congestion-experienced mark (any
// of its cells entered a switch output queue past the mark threshold).
// Outside a delivery it is false.
func (d *Driver) CEMarked() bool { return d.currentCE }

// Retain, called from within a path handler, transfers ownership of the
// delivered message and the PDU's receive buffers to the caller — an
// upper protocol holding a fragment for reassembly. Both must come back
// via Release, or the receive pool shrinks (exactly the resource the
// paper's copy-free data path has to manage, §2.2/§3.1); m must not be
// used after that.
func (d *Driver) Retain(m *msg.Message) {
	if m != d.currentMsg {
		panic("driver: Retain outside the delivering handler")
	}
	d.retainFlag = true
}

// Release returns retained buffers to the receive pool. Releasing the
// message currently being delivered (retained and released within the
// same handler invocation) simply cancels the retention.
func (d *Driver) Release(_ *sim.Proc, m *msg.Message) {
	if m == d.currentMsg {
		d.retainFlag = false
		return
	}
	bufs, ok := d.retained[m]
	if !ok {
		panic("driver: Release of unretained message")
	}
	delete(d.retained, m)
	d.reserve = append(d.reserve, bufs...)
	clear(bufs)
	d.spareBufs = append(d.spareBufs, bufs[:0])
	d.spareMsgs = append(d.spareMsgs, m)
}

// RecoverData is the lazy-invalidation recovery path (§2.3): when a
// protocol detects a data error it invalidates the cache over the
// message's buffers and re-evaluates before declaring the message bad.
func (d *Driver) RecoverData(p *sim.Proc, m *msg.Message) bool {
	if d.cfg.Cache != CacheLazy {
		return false
	}
	segs, err := m.PhysSegments()
	if err != nil {
		return false
	}
	d.stats.Recoveries++
	if eng := d.host.Eng; eng.Recording() {
		eng.Emit(sim.TraceEvent{At: eng.Now(), Ph: 'i', Comp: d.trk, Cat: sim.CatProto, Name: "lazy-recovery", Arg: int64(m.Len())})
	}
	d.host.InvalidateData(p, segs)
	return true
}

// NoteChecksumError records a protocol-detected data error.
func (d *Driver) NoteChecksumError() { d.stats.RxChecksumErr++ }
