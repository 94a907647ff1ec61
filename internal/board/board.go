// Package board models the OSIRIS network adaptor.
//
// Following the paper's central observation that "software running on
// the two 80960s controls the send/receive functionality of the adaptor,
// and ... this code effectively defines the software interface between
// the host and the adaptor" (§1), the board here is ordinary code: the
// firmware of a transmit processor and a receive processor, written as
// resumable state machines driven by simulation events, over the
// dual-port memory, a pair of DMA controllers, and the striped ATM
// links. Changing "firmware" policy (reassembly strategy, DMA length,
// interrupt discipline) is a configuration of this package, exactly as
// reprogramming the i960s was.
//
// The board exposes sixteen transmit queue pages and sixteen
// free/receive queue-page pairs (§3.2). Channel 0 is the kernel's; the
// rest can be mapped into applications as application device channels.
package board

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/atm"
	"repro/internal/dpm"
	"repro/internal/hostsim"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/queue"
	"repro/internal/sim"
)

// DMAMode selects the receive-side DMA transfer length policy (§2.5.1).
type DMAMode int

const (
	// SingleCell issues one DMA per cell payload (44 bytes).
	SingleCell DMAMode = iota
	// DoubleCell lets the receive processor look at two cell headers and
	// combine contiguous payloads into one 88-byte DMA (§2.5.1).
	DoubleCell
)

func (m DMAMode) String() string {
	if m == DoubleCell {
		return "double-cell"
	}
	return "single-cell"
}

// TxDMAPolicy selects how the transmit DMA controller handles cells
// whose bytes span a buffer boundary (§2.5.2).
type TxDMAPolicy int

const (
	// BoundaryStop is the implemented fix: the DMA stops at the buffer
	// (page) boundary and a second address fills the rest of the cell,
	// so cells are always full and buffers need not be multiples of the
	// cell payload.
	BoundaryStop TxDMAPolicy = iota
	// FixedCell is the original design: DMA lengths are exactly one cell
	// payload, so a buffer that does not end on a 44-byte multiple forces
	// a partially-filled cell in the middle of the PDU — the inelegant,
	// interoperability-breaking behaviour of §2.5.2.
	FixedCell
	// ArbitraryLength is the "ideal solution" the programmable logic
	// could not afford: any transfer length (behaviourally equal to
	// BoundaryStop for chained buffers; kept as a distinct mode for the
	// ablation benchmarks).
	ArbitraryLength
)

func (p TxDMAPolicy) String() string {
	switch p {
	case FixedCell:
		return "fixed-cell"
	case ArbitraryLength:
		return "arbitrary-length"
	default:
		return "boundary-stop"
	}
}

// ReassemblyStrategy selects how the receive processor copes with
// striping skew (§2.6).
type ReassemblyStrategy int

const (
	// FourAAL5 runs one AAL5-style reassembly per physical link, placing
	// the j-th cell received on link l at offset (j·width+l)·44 — the
	// strategy that exploits per-link ordering (§2.6 strategy two).
	FourAAL5 ReassemblyStrategy = iota
	// SeqNum places each cell by an explicit per-cell sequence number in
	// the AAL header (§2.6 strategy one).
	SeqNum
	// ArrivalOrder places cells in arrival order — correct only without
	// skew; the ablation showing why skew handling is needed.
	ArrivalOrder
)

func (s ReassemblyStrategy) String() string {
	switch s {
	case SeqNum:
		return "seqnum"
	case ArrivalOrder:
		return "arrival-order"
	default:
		return "four-aal5"
	}
}

// UsesSeqNumbers reports whether the transmit side must stamp per-cell
// sequence numbers for this strategy.
func (s ReassemblyStrategy) UsesSeqNumbers() bool { return s == SeqNum }

// IRQ line assignment: one receive, one transmit-flow-control, and one
// protection-violation line per channel.
const (
	RxIRQBase  = 0
	TxIRQBase  = 16
	VioIRQBase = 32
)

// NumChannels is the number of queue pages per direction (§3.2).
const NumChannels = dpm.PagesPerHalf

// The board keeps its open channels as a uint16 mask (Board.openMask).
var _ = [1]int{}[NumChannels-16]

// allOpen is openMask with every channel open.
const allOpen = 1<<NumChannels - 1

// Fixed firmware parameters.
const (
	// freeRingSlots is the free-buffer ring length, the paper's queue
	// length (§2.3).
	freeRingSlots = 64
	// cellOverheadRx prices the receive processor's per-cell firmware
	// work, calibrated so reassembly runs at "approximately OC-12
	// speeds in software" (§5).
	cellOverheadRx = 600 * time.Nanosecond
	// pollDelay models the latency for a polling on-board processor to
	// notice new work in the dual-port memory.
	pollDelay = 200 * time.Nanosecond
)

// Config configures a board's firmware policies.
type Config struct {
	Name     string
	RxDMA    DMAMode
	TxPolicy TxDMAPolicy
	Strategy ReassemblyStrategy

	// Ring slot counts (defaults 64, the paper's queue length, §2.3).
	TxRingSlots   int
	RecvRingSlots int

	// RxFIFOCells is the on-board cell FIFO depth (default 64). Overflow
	// drops cells, modelling inadequate buffering.
	RxFIFOCells int

	// CellOverheadTx prices the transmit processor's per-cell firmware
	// work. The default (1.08 µs) is calibrated so single-cell transmit
	// tops out near the paper's 325 Mbps (§5).
	CellOverheadTx time.Duration

	// InterruptPerPDU reverts to the traditional signalling the paper's
	// design replaces (§2.1.2): assert a host interrupt for every
	// received buffer and for every transmit completion, instead of the
	// empty→non-empty / tail-advance discipline. Ablation only.
	InterruptPerPDU bool

	// StripeWidth is the number of physical links (default 4).
	StripeWidth int

	// ReasmTimeout bounds how long a partial reassembly may sit without
	// receiving a cell before the receive processor aborts it and
	// reclaims its buffers — the graceful-degradation path for a lost
	// EOM/Last cell, which would otherwise strand rxBuf and descriptor
	// state forever. Zero disables the sweep (the seed behaviour). The
	// timeout must be much larger than per-cell processing time;
	// millisecond scale is typical.
	ReasmTimeout time.Duration
	// ReasmResync enables AAL5-style resynchronization after a mid-PDU
	// framing error: when the loss check aborts a reassembly on a cell
	// that is not itself a Last cell, the receive processor discards
	// subsequent cells on that VCI (counted in CellsResync) until the
	// next Last cell passes, so the abandoned PDU's tail cannot seed a
	// frame-shifted reassembly. Without it, a single mid-stream abort
	// under sustained load can wedge a VCI permanently: the orphaned
	// Last cell opens a bogus one-cell state whose framing bits poison
	// the loss check for every subsequent PDU, which re-orphans its own
	// Last cell in turn. Opt-in to keep the seed experiments
	// bit-identical.
	ReasmResync bool
	// CheckCRC verifies the AAL5 trailer CRC over each reassembled PDU
	// (against a firmware shadow copy of the payload) and drops
	// corrupted PDUs, counted in PDUsCRCDropped. Opt-in: the calibrated
	// experiments model the §2.3 premise that error detection lives in
	// the transport, and one ablation deliberately delivers corrupt
	// PDUs to show why skew handling matters.
	CheckCRC bool
	// RejectDuplicates drops duplicate cells where they are
	// recognizable: exactly (by sequence number) under the SeqNum
	// strategy, and duplicated Last cells under every strategy.
	// Interior duplicates under the placement strategies shift the
	// placement arithmetic and surface through the AAL5 error check
	// instead. Counted in CellsDuplicate.
	RejectDuplicates bool

	// RxFIFOQuota caps how many cells any one channel may hold in the
	// shared on-board receive FIFO (0 = unlimited, the seed behaviour).
	// Without it, one full-blast sender can fill the FIFO and starve
	// every other tenant's cells before demultiplexing even happens;
	// with it, an over-quota channel's cells are dropped (counted in
	// CellsQuotaDropped and per channel) while other tenants' cells
	// still find space. Opt-in per-tenant isolation.
	RxFIFOQuota int

	// RecvDropGrace bounds how long the receive DMA engine will wait
	// for space on a channel's full receive ring before dropping the
	// descriptor's PDU instead (0 = wait forever, the seed behaviour).
	// The engine is shared by all channels, so an unbounded wait lets
	// one never-reaping receiver stall every tenant's deliveries; with
	// a grace bound, the misbehaving channel's PDU is dropped to its
	// PDU boundary (buffers recycled on-board, an abort marker sent
	// once the ring drains so the driver discards any partial
	// delivery) and the engine moves on. Counted in RecvRingDropped.
	RecvDropGrace time.Duration

	// TxDRRQuantum enables deficit-round-robin transmit arbitration
	// among equal-priority channels (0 = the seed's cell-granularity
	// round robin). Each ready channel earns this many payload bytes
	// of deficit per arbitration round and transmits while its deficit
	// lasts; tenants sending short, padded PDUs are charged only for
	// the bytes they ship, so cell-slot fairness becomes goodput-byte
	// fairness. Values below one cell payload are clamped up to it.
	TxDRRQuantum int
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "osiris"
	}
	if c.TxRingSlots == 0 {
		c.TxRingSlots = 64
	}
	if c.RecvRingSlots == 0 {
		c.RecvRingSlots = 64
	}
	if c.RxFIFOCells == 0 {
		c.RxFIFOCells = 64
	}
	if c.CellOverheadTx == 0 {
		c.CellOverheadTx = 1080 * time.Nanosecond
	}
	if c.StripeWidth == 0 {
		c.StripeWidth = atm.StripeWidth
	}
	if c.TxDRRQuantum > 0 && c.TxDRRQuantum < atm.CellPayload {
		c.TxDRRQuantum = atm.CellPayload
	}
	return c
}

// Stats counts board activity.
type Stats struct {
	CellsTx           int64
	CellsRx           int64
	PDUsTx            int64
	PDUsRx            int64
	PDUsDropped       int64 // reassembly gave up (no buffers, bad placement)
	CellsDroppedFIFO  int64
	CellsNoVCI        int64
	PartialCellsTx    int64 // mid-PDU partial cells (FixedCell policy)
	SplitCellsTx      int64 // cells composed from two buffer segments
	CombinedDMAs      int64 // double-cell DMAs issued
	SingleDMAs        int64
	RxIRQs            int64
	TxIRQs            int64
	Violations        int64
	ScratchRecycled   int64
	PDUsTimedOut      int64 // reassemblies aborted by the ReasmTimeout sweep
	PDUsCRCDropped    int64 // completed PDUs rejected by the AAL5 CRC check
	CellsDuplicate    int64 // duplicate cells rejected (RejectDuplicates)
	CellsResync       int64 // cells discarded while resyncing after a framing error (ReasmResync)
	RxAbortMarkers    int64 // abort markers sent to the driver for partial PDUs
	CellsQuotaDropped int64 // cells dropped by the per-channel rx FIFO quota (RxFIFOQuota)
	RecvRingDropped   int64 // descriptors dropped at a full receive ring (RecvDropGrace)
}

// Channel is one transmit page plus one free/receive page pair — the
// unit the OS can keep for itself (channel 0) or map into an application
// as an ADC (§3.2).
type Channel struct {
	board    *Board
	Index    int
	Priority int
	open     bool

	TxRing   *queue.Ring
	FreeRing *queue.Ring
	RecvRing *queue.Ring

	// allowed is the set of physical frames this channel may name in
	// descriptors; nil means unrestricted (the kernel channel).
	allowed map[mem.Frame]bool
	// vciAllowed optionally narrows authorization per transmit VCI —
	// the per-ADC descriptor tag when many virtual ADCs multiplex one
	// physical channel: a descriptor carrying VCI v must name only
	// frames in vciAllowed[v] (in addition to the channel set). nil
	// (the common case) costs one branch; descriptors with VCI 0
	// (free-ring buffers) see only the channel-level check.
	vciAllowed map[atm.VCI]map[mem.Frame]bool

	tx        txStream
	peekAhead int // descs peeked past, awaiting tail advance by the DMA engine
	reasm     map[atm.VCI]*reasmState
	resync    map[atm.VCI]bool // VCIs discarding until the next Last cell (Config.ReasmResync)
	stash     []queue.Desc     // internally recycled scratch buffers

	// Per-tenant fairness state (all opt-in; zero-valued when off).
	fifoCells    int   // cells currently held in the shared rx FIFO (RxFIFOQuota)
	quotaDropped int64 // cells this channel lost to the quota
	txDeficit    int   // DRR byte deficit (TxDRRQuantum)
	ringDropped  int64 // descriptors this channel lost to RecvDropGrace

	// Receive-ring overflow drop state (RecvDropGrace). After a drop
	// the engine discards the rest of that PDU's descriptors
	// (rxDropUntilEOP) so the driver never sees a torn PDU, and — if
	// part of the PDU already reached the ring — defers one abort
	// marker (rxNeedAbort) to be pushed before the next delivery.
	rxDropUntilEOP bool
	rxNeedAbort    bool
	rxPduPushed    bool // a data descriptor of the current PDU is in the ring
}

// QuotaDropped reports cells this channel lost to the rx FIFO quota.
func (c *Channel) QuotaDropped() int64 { return c.quotaDropped }

// RingDropped reports descriptors this channel lost to RecvDropGrace.
func (c *Channel) RingDropped() int64 { return c.ringDropped }

// Open reports whether the channel has been opened.
func (c *Channel) Open() bool { return c.open }

// NotifyFlagOff returns the dual-port offset of this channel's
// transmit-queue "interrupt me at half empty" flag (§2.1.2).
func (c *Channel) NotifyFlagOff() uint32 {
	return dpm.TxPageOff(c.Index) + dpm.PageSize - 4
}

// Board is one OSIRIS adaptor plugged into a host.
type Board struct {
	eng  *sim.Engine
	host *hostsim.Host
	cfg  Config

	DPM *dpm.Memory

	chans [NumChannels]*Channel
	demux VCITable // O(1) VCI→channel receive demultiplexer

	outLinks []*atm.Link // transmit side, indexed by stripe position
	txSink   func(c atm.Cell, link int)
	rxFIFO   *sim.Chan[rxCell]

	irq func(line int)
	// vioHook, when set, attributes each authorization violation to the
	// offending descriptor's transmit VCI — the per-virtual-ADC tag on
	// multiplexed channels (adc.Manager installs it).
	vioHook func(ch int, vci atm.VCI)

	txWork  *sim.Cond
	txRR    int // round-robin cursor among equal-priority channels
	txCmds  *sim.Chan[*txCmd]
	rxCmds  *sim.Chan[*rxCmd]
	fireCtl *sim.Chan[fictReq]

	// openMask has bit i set when channel i is open; the transmit scan
	// visits only those channels.
	openMask uint16

	// The processors, the DMA controllers and the fictitious-PDU
	// generator: state machines advanced by events, not processes.
	txCPU txProcessor
	rxCPU rxProcessor
	txDMA txDMA
	rxDMA rxDMA
	fict  fictGen

	// Record pools, host-side memory reuse only, with no simulated
	// effect: the processors take command records and the DMA
	// controllers return them. The receive processor takes reassembly
	// states, which keep their slices' storage; it returns one at the end
	// of handling the cell that finished it, and the timeout sweep one
	// the processor is not handling a cell of (rxProcessor.holds).
	txCmdPool sim.Pool[*txCmd]
	rxCmdPool sim.Pool[*rxCmd]
	reasmPool sim.Pool[*reasmState]

	reasmTimer sim.Event // pending ReasmTimeout sweep, if any

	stats Stats

	// Telemetry handles, nil unless RegisterMetrics installed them.
	// Observation sites nil-check before computing the observed value,
	// so the disabled plane costs one branch and zero allocations.
	mRxFIFOHW  *metrics.HighWater
	mTxFIFOHW  *metrics.HighWater
	mReasmOpen *metrics.HighWater
	mReasmSpan *metrics.Sketch

	// Trace track labels, precomputed so Emit never concatenates.
	trkRx string
	trkTx string
}

type rxCell struct {
	c    atm.Cell
	link int
	// qch is the channel charged for this cell's rx-FIFO occupancy
	// under RxFIFOQuota; nil when the quota is off or the cell entered
	// by a path that bypasses accounting (fictitious generator,
	// InjectCell). The pointer rides with the cell so the charge is
	// released against the right channel even if the VCI is rebound
	// while the cell sits in the FIFO.
	qch *Channel
}

// Command queue depths of the two DMA controllers.
const (
	txCmdDepth = 8
	rxCmdDepth = 16
)

// fillCmdPools makes the command records a board can have in use at
// once — a full queue, one in its controller and one its processor is
// building — from one slab per kind, so the run takes records instead
// of allocating them. The pools still grow if that is ever exceeded.
func (b *Board) fillCmdPools() {
	const inUse = 2 // one in the controller, one being built
	const cellSegs = 2
	tx := make([]txCmd, txCmdDepth+inUse)
	txSegs := make([]mem.PhysBuffer, cellSegs*len(tx))
	txRecs := make([]*txCmd, len(tx))
	for i := range tx {
		tx[i].segs = txSegs[cellSegs*i : cellSegs*i : cellSegs*(i+1)]
		txRecs[i] = &tx[i]
	}
	b.txCmdPool.Stock(txRecs)
	// A receive command carries up to a double-cell DMA's payload in
	// at most two extents and usually one or two descriptors.
	const data = 2 * atm.CellPayload
	rx := make([]rxCmd, rxCmdDepth+inUse)
	rxData := make([]byte, data*len(rx))
	rxSegs := make([]mem.PhysBuffer, cellSegs*len(rx))
	rxPushes := make([]queue.Desc, cellSegs*len(rx))
	rxRecs := make([]*rxCmd, len(rx))
	for i := range rx {
		rx[i].data = rxData[data*i : data*i : data*(i+1)]
		rx[i].segs = rxSegs[cellSegs*i : cellSegs*i : cellSegs*(i+1)]
		rx[i].pushes = rxPushes[cellSegs*i : cellSegs*i : cellSegs*(i+1)]
		rxRecs[i] = &rx[i]
	}
	b.rxCmdPool.Stock(rxRecs)
}

// Release returns the board's dual-port memory to the OS, at teardown,
// as hostsim.Host.Release does for its host: any later ring or
// dual-port memory access panics. Calling it again does nothing.
func (b *Board) Release() { b.DPM.Release() }

// New creates a board attached to host h. Interrupts are delivered to
// the host's interrupt controller. The board starts no process: its two
// processors, two DMA controllers and fictitious-PDU generator are
// state machines advanced by events, each taking its first step now,
// in the slot a process started here would have run in.
func New(e *sim.Engine, h *hostsim.Host, cfg Config) *Board {
	b := build(e, h, cfg)
	now := e.Now()
	e.AtCall(now, txProcStep, &b.txCPU)
	e.AtCall(now, txDMAStep, &b.txDMA)
	e.AtCall(now, rxProcStep, &b.rxCPU)
	e.AtCall(now, rxDMAStep, &b.rxDMA)
	e.AtCall(now, fictStep, &b.fict)
	return b
}

// build constructs a board whose processors and engines have not
// started.
func build(e *sim.Engine, h *hostsim.Host, cfg Config) *Board {
	cfg = cfg.withDefaults()
	b := &Board{
		eng:    e,
		host:   h,
		cfg:    cfg,
		DPM:    dpm.New(e, h.Bus),
		rxFIFO: sim.NewChan[rxCell](e, cfg.RxFIFOCells),
		irq:    h.Int.Assert,
		trkRx:  cfg.Name + "-rx",
		trkTx:  cfg.Name + "-tx",
	}
	for i := 0; i < NumChannels; i++ {
		ch := &Channel{
			board:  b,
			Index:  i,
			reasm:  make(map[atm.VCI]*reasmState),
			resync: make(map[atm.VCI]bool),
		}
		ch.TxRing = queue.NewRing(b.DPM, dpm.TxPageOff(i), cfg.TxRingSlots)
		rxBase := dpm.RxPageOff(i)
		ch.FreeRing = queue.NewRing(b.DPM, rxBase, freeRingSlots)
		ch.RecvRing = queue.NewRing(b.DPM, rxBase+uint32(queue.BytesFor(freeRingSlots)), cfg.RecvRingSlots)
		b.chans[i] = ch
	}
	if queue.BytesFor(freeRingSlots)+queue.BytesFor(cfg.RecvRingSlots) > dpm.PageSize {
		panic("board: free+recv rings exceed one queue page")
	}
	if queue.BytesFor(cfg.TxRingSlots) > dpm.PageSize-4 {
		panic("board: tx ring exceeds its queue page")
	}
	b.chans[0].open = true // the kernel's channel
	b.openMask = 1

	b.txWork = sim.NewCond(e)
	b.txCmds = sim.NewChan[*txCmd](e, txCmdDepth)
	b.rxCmds = sim.NewChan[*rxCmd](e, rxCmdDepth)
	b.fireCtl = sim.NewChan[fictReq](e, 1)
	b.fillCmdPools()
	b.txCPU.init(b)
	b.rxCPU.init(b)
	b.txDMA.init(b)
	b.rxDMA.init(b)
	b.fict.init(b)
	return b
}

// Config returns the effective configuration.
func (b *Board) Config() Config { return b.cfg }

// Host returns the host this board is plugged into.
func (b *Board) Host() *hostsim.Host { return b.host }

// Stats returns a copy of the counters.
func (b *Board) Stats() Stats { return b.stats }

// RegisterMetrics registers the board's telemetry under prefix. The
// Stats counters become snapshot-time samples (zero hot-path cost);
// the FIFO occupancy high-waters, open-reassembly high-water, and the
// per-PDU reassembly-span sketch (µs from first to last cell of a
// completed PDU) are live handles observed on the hot paths, each
// nil-guarded so the disabled plane costs one branch. Call before the
// run starts; a nil registry is a no-op.
func (b *Board) RegisterMetrics(r *metrics.Registry, prefix string) {
	if r == nil {
		return
	}
	s := &b.stats
	r.Sample(prefix+"/cells_tx", metrics.KindCounter, func() int64 { return s.CellsTx })
	r.Sample(prefix+"/cells_rx", metrics.KindCounter, func() int64 { return s.CellsRx })
	r.Sample(prefix+"/pdus_tx", metrics.KindCounter, func() int64 { return s.PDUsTx })
	r.Sample(prefix+"/pdus_rx", metrics.KindCounter, func() int64 { return s.PDUsRx })
	r.Sample(prefix+"/pdus_dropped", metrics.KindCounter, func() int64 { return s.PDUsDropped })
	r.Sample(prefix+"/rx_fifo_dropped", metrics.KindCounter, func() int64 { return s.CellsDroppedFIFO })
	r.Sample(prefix+"/cells_no_vci", metrics.KindCounter, func() int64 { return s.CellsNoVCI })
	r.Sample(prefix+"/rx_irqs", metrics.KindCounter, func() int64 { return s.RxIRQs })
	r.Sample(prefix+"/tx_irqs", metrics.KindCounter, func() int64 { return s.TxIRQs })
	r.Sample(prefix+"/pdus_timed_out", metrics.KindCounter, func() int64 { return s.PDUsTimedOut })
	r.Sample(prefix+"/pdus_crc_dropped", metrics.KindCounter, func() int64 { return s.PDUsCRCDropped })
	r.Sample(prefix+"/cells_duplicate", metrics.KindCounter, func() int64 { return s.CellsDuplicate })
	if b.cfg.ReasmResync {
		// Gated so configurations without resync keep their metric set
		// (and the committed benchmark artifacts) byte-identical.
		r.Sample(prefix+"/cells_resync", metrics.KindCounter, func() int64 { return s.CellsResync })
	}
	r.Sample(prefix+"/rx_abort_markers", metrics.KindCounter, func() int64 { return s.RxAbortMarkers })
	if b.cfg.RxFIFOQuota > 0 {
		// Gated like cells_resync: only quota-enabled configurations
		// grow their metric name set.
		r.Sample(prefix+"/cells_quota_dropped", metrics.KindCounter, func() int64 { return s.CellsQuotaDropped })
	}
	if b.cfg.RecvDropGrace > 0 {
		r.Sample(prefix+"/recv_ring_dropped", metrics.KindCounter, func() int64 { return s.RecvRingDropped })
	}
	r.Sample(prefix+"/reasm_open", metrics.KindGauge, func() int64 { return int64(b.OpenReassemblies()) })
	r.Sample(prefix+"/reasm_held_bufs", metrics.KindGauge, func() int64 { return int64(b.HeldReasmBufs()) })
	b.mRxFIFOHW = r.HighWater(prefix + "/rx_fifo_high_water")
	b.mTxFIFOHW = r.HighWater(prefix + "/tx_fifo_high_water")
	b.mReasmOpen = r.HighWater(prefix + "/reasm_open_high_water")
	b.mReasmSpan = r.Quantiles(prefix+"/reasm_span_us", 0.5, 0.9, 0.99)
}

// ResetStats zeroes the counters.
func (b *Board) ResetStats() { b.stats = Stats{} }

// Channel returns channel i.
func (b *Board) Channel(i int) *Channel {
	if i < 0 || i >= NumChannels {
		panic(fmt.Sprintf("board: channel %d out of range", i))
	}
	return b.chans[i]
}

// KernelChannel returns channel 0.
func (b *Board) KernelChannel() *Channel { return b.chans[0] }

// AttachTxLinks connects the transmit side to physical links; cell i of
// each PDU is transmitted on link i mod width, so the receiver's
// per-link reassembly arithmetic holds even when PDUs from different
// channels interleave.
func (b *Board) AttachTxLinks(links []*atm.Link) {
	if len(links) != b.cfg.StripeWidth {
		panic("board: link count != stripe width")
	}
	b.outLinks = links
}

// SetTxSink installs a callback that absorbs transmitted cells when no
// links are attached — used to isolate the transmit side (Figure 4) and
// by unit tests. It runs in the transmit DMA controller's event
// context, so it must not block.
func (b *Board) SetTxSink(fn func(c atm.Cell, link int)) { b.txSink = fn }

// InjectCell delivers a cell directly into the receive FIFO, as if it
// had arrived on the given link — the unit-test backdoor.
func (b *Board) InjectCell(c atm.Cell, link int) bool {
	if !b.rxFIFO.TrySend(rxCell{c: c, link: link}) {
		b.fifoOverflow(c.VCI)
		return false
	}
	if b.mRxFIFOHW != nil {
		b.mRxFIFOHW.Observe(int64(b.rxFIFO.Len()))
	}
	return true
}

// AttachRxLinks subscribes the receive side to a stripe group's
// deliveries. Cells arriving while the on-board FIFO is full are
// dropped (§2.5.1's "inadequate reassembly space" concern).
func (b *Board) AttachRxLinks(g *atm.StripeGroup) {
	g.SetReceiver(b.receiveCell)
}

// receiveCell runs in link-delivery (event) context: it enters one
// cell into the receive FIFO, dropping on overflow. Under RxFIFOQuota
// the cell is charged to its VCI's channel first, and dropped instead
// if that channel already holds its quota of the shared FIFO —
// per-tenant isolation at the earliest demultiplexing point (§3.1).
func (b *Board) receiveCell(c atm.Cell, link int) {
	rc := rxCell{c: c, link: link}
	if q := b.cfg.RxFIFOQuota; q > 0 {
		if ch := b.demux.Lookup(rc.c.VCI); ch != nil {
			if ch.fifoCells >= q {
				ch.quotaDropped++
				b.stats.CellsQuotaDropped++
				if b.eng.Recording() {
					b.eng.Emit(sim.TraceEvent{At: b.eng.Now(), Ph: 'i', Comp: b.trkRx, Cat: sim.CatDrop, Name: "rx-fifo-quota", Arg: int64(rc.c.VCI)})
				}
				return
			}
			rc.qch = ch
		}
	}
	if !b.rxFIFO.TrySend(rc) {
		b.fifoOverflow(rc.c.VCI)
		return
	}
	if rc.qch != nil {
		rc.qch.fifoCells++
	}
	if b.mRxFIFOHW != nil {
		b.mRxFIFOHW.Observe(int64(b.rxFIFO.Len()))
	}
	if b.eng.Recording() {
		b.eng.Emit(sim.TraceEvent{At: b.eng.Now(), Ph: 'C', Comp: b.trkRx, Cat: sim.CatQueue, Name: "rx-fifo", Arg: int64(b.rxFIFO.Len())})
	}
}

// fifoOverflow counts one cell dropped at a full receive FIFO.
func (b *Board) fifoOverflow(vci atm.VCI) {
	b.stats.CellsDroppedFIFO++
	if b.eng.Recording() {
		b.eng.Emit(sim.TraceEvent{At: b.eng.Now(), Ph: 'i', Comp: b.trkRx, Cat: sim.CatDrop, Name: "rx-fifo-overflow", Arg: int64(vci)})
	}
}

// OpenChannel marks channel i usable, sets its priority, and restricts
// the physical frames its descriptors may reference (nil = unrestricted,
// kernel use only). This is control-plane work done by the OS at
// connection setup (§3.2).
func (b *Board) OpenChannel(i, priority int, allowed []mem.Frame) *Channel {
	ch := b.Channel(i)
	ch.open = true
	b.openMask |= 1 << i
	ch.Priority = priority
	if allowed == nil {
		ch.allowed = nil
	} else {
		ch.allowed = make(map[mem.Frame]bool, len(allowed))
		for _, f := range allowed {
			ch.allowed[f] = true
		}
	}
	return ch
}

// AllowFrames adds frames to an open channel's authorized set.
func (b *Board) AllowFrames(i int, frames []mem.Frame) {
	ch := b.Channel(i)
	if ch.allowed == nil {
		ch.allowed = make(map[mem.Frame]bool, len(frames))
	}
	for _, f := range frames {
		ch.allowed[f] = true
	}
}

// BindVCI routes incoming cells with the given VCI to channel i — the
// early demultiplexing decision (§3.1). It also makes the VCI usable for
// transmit on that channel.
func (b *Board) BindVCI(v atm.VCI, i int) {
	b.demux.Bind(v, b.Channel(i))
}

// UnbindVCI removes a VCI route, clearing any pending resync state so a
// later rebinding of the VCI starts with clean framing.
func (b *Board) UnbindVCI(v atm.VCI) {
	if ch := b.demux.Unbind(v); ch != nil {
		delete(ch.resync, v)
	}
}

// LookupVCI returns the channel a VCI is routed to (nil if unbound) —
// the same O(1) demux the receive path uses.
func (b *Board) LookupVCI(v atm.VCI) *Channel { return b.demux.Lookup(v) }

// BoundVCIs returns the number of VCIs currently routed.
func (b *Board) BoundVCIs() int { return b.demux.Len() }

// RestrictVCIFrames narrows transmit authorization for VCI v on channel
// i to the given frames (per-ADC descriptor tagging on a multiplexed
// channel). The frames are also added to the channel-level set.
func (b *Board) RestrictVCIFrames(i int, v atm.VCI, frames []mem.Frame) {
	ch := b.Channel(i)
	if ch.vciAllowed == nil {
		ch.vciAllowed = make(map[atm.VCI]map[mem.Frame]bool)
	}
	set := ch.vciAllowed[v]
	if set == nil {
		set = make(map[mem.Frame]bool, len(frames))
		ch.vciAllowed[v] = set
	}
	for _, f := range frames {
		set[f] = true
	}
	b.AllowFrames(i, frames)
}

// RevokeVCIFrames removes VCI v's per-VCI authorization from channel i
// and retires its frames from the channel-level set — connection
// teardown on a multiplexed channel, so churn cannot grow the
// authorization tables without bound. The frames must not be shared
// with another tenant of the channel.
func (b *Board) RevokeVCIFrames(i int, v atm.VCI) {
	ch := b.Channel(i)
	set := ch.vciAllowed[v]
	if set == nil {
		return
	}
	delete(ch.vciAllowed, v)
	for f := range set {
		delete(ch.allowed, f)
	}
}

// SetViolationHook installs a callback invoked (in the board's event
// context, so it must not block) on every authorization violation with
// the channel index and the offending descriptor's VCI — 0 when the
// descriptor carries no tag (free-ring buffers). adc.Manager uses it to
// attribute violations to the virtual ADC that issued the descriptor.
func (b *Board) SetViolationHook(fn func(ch int, vci atm.VCI)) { b.vioHook = fn }

// KickTx tells the transmit processor that new descriptors may be
// queued. The real processor discovers this by polling the head
// pointer; the kick plus pollDelay models that discovery without the
// simulation having to burn events on an idle poll loop.
func (b *Board) KickTx() { b.txWork.Broadcast() }

// KickFree tells the board that the host returned buffers to a free
// ring. Nothing on the receive side waits for them: the receive
// processor finds free buffers when cells need them. It broadcasts
// txWork, so it wakes an idle transmit processor into a poll and a scan
// of its rings that usually finds nothing. That wake is part of the
// model's event order: without it the paper's experiments keep their
// results but the faults scenario's goodput moves (DESIGN §7).
func (b *Board) KickFree() { b.txWork.Broadcast() }

func (b *Board) authorized(ch *Channel, d queue.Desc) bool {
	if ch.allowed == nil {
		return true
	}
	m := b.host.Mem
	first := m.FrameOf(d.Addr)
	last := m.FrameOf(d.Addr + mem.PhysAddr(d.Len) - 1)
	for f := first; f <= last; f++ {
		if !ch.allowed[f] {
			return false
		}
	}
	if ch.vciAllowed != nil && d.VCI != 0 {
		set := ch.vciAllowed[d.VCI]
		if set == nil {
			return false // tagged descriptor for a VCI with no grant
		}
		for f := first; f <= last; f++ {
			if !set[f] {
				return false
			}
		}
	}
	return true
}

// violation handles an unauthorized descriptor found by the processor
// whose trace track is trk.
func (b *Board) violation(ch *Channel, vci atm.VCI, trk string) {
	b.stats.Violations++
	if b.eng.Recording() {
		b.eng.Emit(sim.TraceEvent{At: b.eng.Now(), Ph: 'i', Comp: trk, Cat: sim.CatDrop, Name: "auth-violation", Arg: int64(vci)})
	}
	if b.vioHook != nil {
		b.vioHook(ch.Index, vci)
	}
	b.irq(VioIRQBase + ch.Index)
}

// noteReasmActivity refreshes a reassembly's idle clock and keeps the
// timeout sweep armed. The timer is armed only while reassemblies can
// be open and is not re-armed once everything drains — a perpetually
// pending event would keep Engine.Run from ever quiescing.
func (b *Board) noteReasmActivity(rs *reasmState) {
	rs.lastArrival = b.eng.Now()
	if b.cfg.ReasmTimeout > 0 && !b.reasmTimer.Pending() {
		b.reasmTimer = b.eng.AfterCall(b.cfg.ReasmTimeout, reasmSweepCB, b)
	}
}

// reasmSweepRetry is how soon the sweep retries a timed-out reassembly
// whose abort marker could not be queued (rx DMA command queue full).
const reasmSweepRetry = 10 * time.Microsecond

// reasmSweepCB runs in event context: it aborts every reassembly whose
// idle time reached ReasmTimeout, reclaiming its buffers, then re-arms
// for the earliest remaining deadline. Channels are visited in index
// order and VCIs in sorted order, so the stash contents and statistics
// are deterministic despite the map storage.
func reasmSweepCB(a any) {
	b := a.(*Board)
	b.reasmTimer = sim.Event{}
	if b.cfg.ReasmTimeout <= 0 || b.eng.Halted() {
		return
	}
	now := b.eng.Now()
	var next sim.Time = -1
	sooner := func(t sim.Time) {
		if next < 0 || t < next {
			next = t
		}
	}
	for _, ch := range b.chans {
		if len(ch.reasm) == 0 {
			continue
		}
		vcis := make([]int, 0, len(ch.reasm))
		for v := range ch.reasm {
			vcis = append(vcis, int(v))
		}
		sort.Ints(vcis)
		for _, vi := range vcis {
			rs := ch.reasm[atm.VCI(vi)]
			deadline := rs.lastArrival.Add(b.cfg.ReasmTimeout)
			if deadline > now {
				sooner(deadline)
			} else if !b.timeoutReasm(ch, rs) {
				sooner(now.Add(reasmSweepRetry))
			}
		}
	}
	if next >= 0 {
		b.reasmTimer = b.eng.AtCall(next, reasmSweepCB, b)
	}
}

// timeoutReasm aborts one stranded reassembly: unpushed buffers return
// to the channel's scratch stash, and if part of the PDU already
// streamed to the host, an abort-marker descriptor (FlagErr) follows
// the in-flight DMA so the driver discards the partial delivery and
// recycles its buffers. Returns false, and the caller retries shortly,
// when the marker could not be queued or the receive processor is
// handling a cell of the PDU: a reassembly being fed never expires.
func (b *Board) timeoutReasm(ch *Channel, rs *reasmState) bool {
	if b.rxCPU.holds(rs) {
		return false
	}
	if rs.anyPushed() {
		marker := b.abortCmd(ch, rs.vci)
		if !b.rxCmds.TrySend(marker) {
			b.putRxCmd(marker)
			return false
		}
		b.stats.RxAbortMarkers++
	}
	b.dropReasm(ch, rs, &b.stats.PDUsTimedOut, "reasm-timeout")
	return true
}

// OpenReassemblies counts the partial PDUs currently held across all
// channels — the quantity the ReasmTimeout sweep exists to drive back
// to zero. Snapshot discipline: read between engine steps.
func (b *Board) OpenReassemblies() int {
	n := 0
	for _, ch := range b.chans {
		n += len(ch.reasm)
	}
	return n
}

// CheckPools reports each record pool whose count of records out
// differs from what the board holds when the engine has run dry: no
// command, since a command is held only while events move its cell,
// and one reassembly state per open reassembly.
func (b *Board) CheckPools() error {
	return errors.Join(b.txCmdPool.Check("board tx commands", 0), b.rxCmdPool.Check("board rx commands", 0),
		b.reasmPool.Check("board reassemblies", b.OpenReassemblies()))
}

// HeldReasmBufs counts receive buffers held by open reassemblies that
// have not yet been pushed to the host. Together with OpenReassemblies
// this is the leak check for graceful degradation: after a faulted run
// drains, both must be zero.
func (b *Board) HeldReasmBufs() int {
	n := 0
	for _, ch := range b.chans {
		for _, rs := range ch.reasm {
			for i := range rs.bufs {
				if !rs.bufs[i].pushed {
					n++
				}
			}
		}
	}
	return n
}
