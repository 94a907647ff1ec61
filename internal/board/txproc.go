package board

import (
	"hash/crc32"
	"math/bits"

	"repro/internal/atm"
	"repro/internal/dpm"
	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/sim"
)

// txStream is the per-channel segmentation state: the current PDU's
// descriptor chain and the board's position within it. A PDU begins
// transmission only once its EOP descriptor has been queued, so the
// total length (and hence the AAL5 framing bits) is known up front.
type txStream struct {
	descs   []queue.Desc
	eop     bool
	poison  bool // authorization violation anywhere in the chain
	active  bool
	vci     atm.VCI
	pduLen  int
	total   int // cell count (CellsFor), 0 in FixedCell partial mode
	cellIdx int
	bytePos int
	descIdx int // position within descs for take()
	descOff int
}

// peekAhead tracking lives on the Channel (descs peeked but whose tail
// advance is still pending in the DMA engine).

// txCmd is one cell's worth of work for the transmit DMA controller.
// Records come from the board's pool (txCmdPool) and travel by pointer;
// the controller returns each one when the cell is out.
type txCmd struct {
	ch      *Channel
	segs    []mem.PhysBuffer // host memory extents to gather (0..2)
	dataLen int
	pad     int
	trailer bool
	vci     atm.VCI
	eom     bool
	last    bool
	seq     uint32
	hasSeq  bool
	linkIdx int
	advance int  // descriptors to consume after this cell (0 unless PDU end)
	discard bool // no cell: only consume the advance descriptors of a discarded PDU
}

// txProcessor is the transmit on-board processor: it gathers
// descriptor chains from the transmit rings (kernel channel plus ADCs,
// by priority), runs the segmentation algorithm, and feeds the DMA
// controller one cell at a time — interleaving cells of PDUs from
// different channels at cell granularity, the fine-grained multiplexing
// of §2.5.1. Like the receive processor it is firmware written as a
// resumable state machine: run is its one event callback, looping
// through its states until it must wait for a ring access, for its
// per-cell time, for room in the DMA command queue or, with nothing to
// send, for a kick.
//
// Each round scans the channels for the one to serve next, gathering
// descriptor chains as a side effect. Ties rotate round-robin so
// equal-priority channels interleave cell by cell ("the microprocessor
// could transmit one cell from each in turn", §2.5.1); with
// TxDRRQuantum set, the top priority class is served
// deficit-round-robin instead (drrChoose).
type txProcessor struct {
	b  *Board
	k  sim.Cont // (txProcStep, the processor)
	pc uint8
	// The scan.
	i     int      // channels scanned so far
	ch    *Channel // the channel being gathered, then the one served
	best  *Channel // the best ready channel so far (round-robin arbiter)
	prio  int      // its priority; under DRR the top ready priority
	ready bool     // DRR: some channel is ready
	// gather's state and result, and the ring access in progress.
	gpc uint8
	got bool
	op  queue.Op
	// The command being queued; trailer: a FixedCell trailer cell
	// follows it.
	cmd     *txCmd
	trailer bool
}

// txProcessor states.
const (
	txpPick    uint8 = iota // begin a scan
	txpScan                 // consider the next channel
	txpGather               // in gather
	txpPoll                 // kicked while idle: the poll notices the work
	txpCell                 // the cell's firmware time is up: build its command
	txpSubmit               // queue cmd for the DMA controller
	txpTrailer              // the trailer cell's time is up: build it
)

func (x *txProcessor) init(b *Board) {
	x.b = b
	x.k = sim.Cont{Fn: txProcStep, Arg: x}
}

// txProcStep is the processor's event callback. Once the engine is
// shut down it does nothing, as a killed process would.
func txProcStep(a any) {
	x := a.(*txProcessor)
	if x.b.eng.Halted() {
		return
	}
	x.run()
}

func (x *txProcessor) run() {
	b := x.b
	for {
		switch x.pc {
		case txpPick:
			x.i, x.best, x.prio, x.ready = 0, nil, 0, false
			x.pc = txpScan
		case txpScan:
			// Jump to the next open channel in the round's visit order:
			// index order under DRR, else from past the round-robin
			// cursor on. With every channel open that is x.i itself.
			rot := 0
			if b.cfg.TxDRRQuantum <= 0 {
				rot = b.txRR + 1
			}
			if open := b.openMask; open != allOpen {
				open = bits.RotateLeft16(open, -rot)
				if rest := open >> x.i; rest != 0 {
					x.i += bits.TrailingZeros16(rest)
				} else {
					x.i = NumChannels
				}
			}
			if x.i == NumChannels {
				ch := x.pick()
				if ch == nil {
					b.txWork.WaitCont(x.k)
					x.pc = txpPoll
					return
				}
				x.ch, x.pc = ch, txpCell
				if !b.eng.WakeAt(b.eng.Now().Add(b.cfg.CellOverheadTx), x.k) {
					return
				}
				continue
			}
			if ch := b.chans[(rot+x.i)%NumChannels]; ch.tx.active {
				x.consider(ch, true)
				x.i++
			} else {
				x.ch, x.gpc, x.pc = ch, gatherPeek, txpGather
			}
		case txpGather:
			if !x.gather() {
				return
			}
			x.consider(x.ch, x.got)
			x.i++
			x.pc = txpScan
		case txpPoll:
			x.pc = txpPick
			if !b.eng.WakeAt(b.eng.Now().Add(pollDelay), x.k) {
				return
			}
		case txpCell:
			x.build()
			x.pc = txpSubmit
		case txpSubmit:
			if !b.txCmds.SendCont(x.cmd, x.k) {
				return
			}
			b.noteTxCmds()
			x.cmd, x.pc = nil, txpPick
			if x.trailer {
				x.trailer, x.pc = false, txpTrailer
				if !b.eng.WakeAt(b.eng.Now().Add(b.cfg.CellOverheadTx), x.k) {
					return
				}
			}
		case txpTrailer:
			x.buildTrailer()
			x.pc = txpSubmit
		}
	}
}

// consider enters a scanned channel, ready with a gathered PDU or not,
// into the round's choice. Under DRR an idle channel's deficit resets:
// DRR credit exists only while backlogged.
func (x *txProcessor) consider(ch *Channel, ready bool) {
	if x.b.cfg.TxDRRQuantum > 0 {
		if !ready {
			ch.txDeficit = 0
		} else if !x.ready || ch.Priority > x.prio {
			x.prio, x.ready = ch.Priority, true
		}
		return
	}
	if ready && (x.best == nil || ch.Priority > x.prio) {
		x.best, x.prio = ch, ch.Priority
	}
}

// pick ends the scan with the channel to serve, nil if none is ready.
func (x *txProcessor) pick() *Channel {
	b := x.b
	if b.cfg.TxDRRQuantum > 0 {
		if !x.ready {
			return nil
		}
		return b.drrChoose(x.prio)
	}
	if x.best != nil {
		b.txRR = x.best.Index
	}
	return x.best
}

// drrChoose is the TxDRRQuantum arbiter: strict priority still wins
// between priority classes, but within the top class, prio, channels
// are served deficit-round-robin on payload bytes — each earns a
// quantum of byte credit per rotation and transmits while its deficit
// lasts, so a tenant shipping short PDUs is charged for the bytes it
// sends, not the cell slots it occupies. Deterministic: index order,
// one cursor.
func (b *Board) drrChoose(prio int) *Channel {
	// From the cursor (inclusive, so the current channel keeps the link
	// while its deficit lasts), pick the first top-priority ready
	// channel with credit left.
	for k := 0; k < NumChannels; k++ {
		idx := (b.txRR + k) % NumChannels
		ch := b.chans[idx]
		if ch == nil || !ch.open || !ch.tx.active || ch.Priority != prio {
			continue
		}
		if ch.txDeficit > 0 {
			b.txRR = idx
			return ch
		}
	}
	// Every ready channel exhausted its credit: a new rotation begins —
	// replenish all of them and advance past the cursor.
	for i := 0; i < NumChannels; i++ {
		ch := b.chans[i]
		if ch != nil && ch.open && ch.tx.active && ch.Priority == prio {
			ch.txDeficit += b.cfg.TxDRRQuantum
		}
	}
	for k := 1; k <= NumChannels; k++ {
		idx := (b.txRR + k) % NumChannels
		ch := b.chans[idx]
		if ch != nil && ch.open && ch.tx.active && ch.Priority == prio {
			b.txRR = idx
			return ch
		}
	}
	return nil // unreachable: a channel of priority prio is ready
}

// gather states.
const (
	gatherPeek    uint8 = iota // peek the next descriptor
	gatherPeeking              // in the peek
	gatherNotify               // no full PDU: in the notify-flag check
	gatherDiscard              // queue the discard of a poisoned PDU
)

// gather peeks descriptors from x.ch's transmit ring until a full PDU
// (through its EOP descriptor) is visible, then activates the stream;
// got reports whether a PDU is ready. It reports false while it waits
// on the ring. Descriptors are not consumed here; the tail advances
// only after the last cell's DMA (§2.1.2). Whenever the ring shows no
// full PDU the processor runs the transmit-side interrupt protocol of
// §2.1.2: the host, having found the ring full, sets the notify flag;
// the board asserts an interrupt once the ring has drained to half.
func (x *txProcessor) gather() bool {
	b, ch := x.b, x.ch
	st := &ch.tx
	for {
		switch x.gpc {
		case gatherPeek:
			if !st.eop {
				x.op.Peek(ch.TxRing, dpm.Board, ch.peekAhead+len(st.descs))
				x.gpc = gatherPeeking
				continue
			}
			if st.poison {
				x.cmd = b.discardCmd(ch)
				x.gpc = gatherDiscard
				continue
			}
			b.activate(ch)
			x.got = true
			return true
		case gatherPeeking:
			if !x.op.Step(x.k) {
				return false
			}
			if !x.op.OK() {
				x.op.Notify(ch.TxRing, dpm.Board, ch.NotifyFlagOff())
				x.gpc = gatherNotify
				continue
			}
			d := x.op.Desc()
			if !b.authorized(ch, d) {
				st.poison = true
				b.violation(ch, d.VCI, b.trkTx)
			}
			st.descs = append(st.descs, d)
			if d.Flags&queue.FlagEOP != 0 {
				st.eop = true
			}
			x.gpc = gatherPeek
		case gatherNotify:
			if !x.op.Step(x.k) {
				return false
			}
			if x.op.OK() {
				b.txIRQ(ch)
			}
			x.got = false
			return true
		case gatherDiscard:
			if !b.txCmds.SendCont(x.cmd, x.k) {
				return false
			}
			b.noteTxCmds()
			x.cmd, x.gpc = nil, gatherPeek
		}
	}
}

// discardCmd retires ch's gathered PDU, which names a frame the channel
// may not use, and returns the command that consumes its descriptors
// without transmitting anything. The DMA controller runs it, so the
// tail moves past them only after every cell ahead of them is out: the
// tail's advance is the host's transmit-completion signal (§2.1.2) and
// cannot skip descriptors still being read.
func (b *Board) discardCmd(ch *Channel) *txCmd {
	n := len(ch.tx.descs)
	cmd := sim.TakeNew(&b.txCmdPool)
	cmd.ch, cmd.advance, cmd.discard = ch, n, true
	ch.peekAhead += n
	ch.tx = txStream{descs: ch.tx.descs[:0]} // keep the descriptor scratch
	return cmd
}

// noteTxCmds observes the DMA command queue's depth after a command
// was queued.
func (b *Board) noteTxCmds() {
	if b.mTxFIFOHW != nil {
		b.mTxFIFOHW.Observe(int64(b.txCmds.Len()))
	}
}

// activate starts transmitting ch's gathered PDU.
func (b *Board) activate(ch *Channel) {
	st := &ch.tx
	st.active = true
	if b.eng.Recording() {
		b.eng.Emit(sim.TraceEvent{At: b.eng.Now(), Ph: 'i', Comp: b.trkTx, Cat: sim.CatPDU, Name: "tx-start", Arg: int64(st.descs[0].VCI)})
	}
	st.vci = st.descs[0].VCI
	st.pduLen = 0
	for _, d := range st.descs {
		st.pduLen += int(d.Len)
	}
	if b.cfg.TxPolicy != FixedCell {
		st.total = atm.CellsFor(st.pduLen)
	}
}

// build produces the served stream's next cell as x.cmd: it computes
// the data extents, framing bits and trailer parameters.
func (x *txProcessor) build() {
	b, ch := x.b, x.ch
	st := &ch.tx
	cmd := sim.TakeNew(&b.txCmdPool)
	x.cmd = cmd
	cmd.ch, cmd.vci = ch, st.vci
	if b.cfg.Strategy.UsesSeqNumbers() {
		cmd.hasSeq = true
		cmd.seq = uint32(st.cellIdx)
	}
	cmd.linkIdx = st.cellIdx % b.cfg.StripeWidth

	want := st.pduLen - st.bytePos
	if want > atm.CellPayload {
		want = atm.CellPayload
	}

	if b.cfg.TxPolicy == FixedCell {
		var taken int
		cmd.segs, taken = st.take(want, true, cmd.segs)
		st.bytePos += taken
		cmd.dataLen = taken
		if taken < want {
			b.stats.PartialCellsTx++
		}
		b.chargeDRR(ch, taken)
		st.cellIdx++
		if st.bytePos == st.pduLen {
			// Data exhausted: the trailer goes in its own (partial) cell.
			b.chargeDRR(ch, 0) // the trailer cell occupies a slot too
			x.trailer = true
		}
		return
	}

	// BoundaryStop / ArbitraryLength: cells are always full; a cell
	// spanning a buffer boundary is composed from two DMA segments.
	var taken int
	cmd.segs, taken = st.take(want, false, cmd.segs)
	if taken != want {
		panic("board: descriptor chain shorter than PDU length")
	}
	if len(cmd.segs) > 1 {
		b.stats.SplitCellsTx++
	}
	cmd.dataLen = taken
	b.chargeDRR(ch, taken)
	isLast := st.cellIdx == st.total-1
	cmd.eom = st.total-st.cellIdx <= b.cfg.StripeWidth
	cmd.last = isLast
	if isLast {
		cmd.trailer = true
		cmd.pad = atm.CellPayload - taken - atm.TrailerSize
	} else {
		cmd.pad = atm.CellPayload - taken // pure padding (penultimate cell)
	}
	st.bytePos += taken
	st.cellIdx++
	if isLast {
		cmd.advance = len(st.descs)
		b.finishPDU(ch)
	}
}

// buildTrailer produces a FixedCell PDU's trailer cell as x.cmd and
// retires the stream.
func (x *txProcessor) buildTrailer() {
	b, ch := x.b, x.ch
	st := &ch.tx
	cmd := sim.TakeNew(&b.txCmdPool)
	x.cmd = cmd
	cmd.ch, cmd.vci = ch, st.vci
	cmd.trailer, cmd.eom, cmd.last = true, true, true
	cmd.linkIdx = st.cellIdx % b.cfg.StripeWidth
	if b.cfg.Strategy.UsesSeqNumbers() {
		cmd.hasSeq = true
		cmd.seq = uint32(st.cellIdx)
	}
	cmd.advance = len(st.descs)
	b.finishPDU(ch)
}

// chargeDRR debits a transmitted cell's payload bytes against its
// channel's deficit (minimum one byte per cell, so zero-length PDUs
// cannot monopolize the link for free).
func (b *Board) chargeDRR(ch *Channel, bytes int) {
	if b.cfg.TxDRRQuantum <= 0 {
		return
	}
	if bytes < 1 {
		bytes = 1
	}
	ch.txDeficit -= bytes
}

// txIRQ asserts ch's transmit interrupt.
func (b *Board) txIRQ(ch *Channel) {
	b.stats.TxIRQs++
	b.irq(TxIRQBase + ch.Index)
}

// take walks the descriptor chain gathering up to want bytes as physical
// extents appended to segs (a caller-supplied scratch slice). With
// single set (FixedCell policy) it stops at the first buffer boundary,
// which is what forces mid-PDU partial cells.
func (st *txStream) take(want int, single bool, segs []mem.PhysBuffer) (_ []mem.PhysBuffer, taken int) {
	for taken < want && st.descIdx < len(st.descs) {
		d := st.descs[st.descIdx]
		avail := int(d.Len) - st.descOff
		if avail == 0 {
			st.descIdx++
			st.descOff = 0
			continue
		}
		n := want - taken
		if n > avail {
			n = avail
		}
		segs = append(segs, mem.PhysBuffer{Addr: d.Addr + mem.PhysAddr(st.descOff), Len: n})
		st.descOff += n
		taken += n
		if single && taken < want {
			break
		}
	}
	return segs, taken
}

// finishPDU retires the stream state; the descriptor tail advance is
// carried by the final cell's DMA command.
func (b *Board) finishPDU(ch *Channel) {
	ch.peekAhead += len(ch.tx.descs)
	ch.tx = txStream{descs: ch.tx.descs[:0]} // keep the descriptor scratch
	b.stats.PDUsTx++
}

// txDMA is the transmit DMA controller plus cell generator, a hardware
// state machine the transmit processor programs through txCmds: it
// gathers each cell's bytes from host memory (one bus transaction per
// segment — the §2.5.2 page-boundary-stop behaviour), maintains the
// per-channel AAL5 CRC/length accumulators, and hands finished cells to
// the physical links. It runs as a continuation: run is its one event
// callback, looping through its states until it must wait for a
// command, the bus, a link or a dual-port access.
type txDMA struct {
	b   *Board
	k   sim.Cont // (txDMAStep, the engine)
	pc  uint8
	cmd *txCmd
	seg int // next segment of cmd
	pos int // its offset in stage
	bus sim.Hold
	op  queue.Op // the tail advance, then the notify-flag check
	// aal5 holds each channel's running AAL5 CRC and length.
	aal5 [NumChannels]struct{ crc, len uint32 }
	// stage gathers one cell's payload; the cell is assembled from it.
	stage [atm.CellPayload]byte
	cell  atm.Cell
}

// txDMA states.
const (
	txIdle    uint8 = iota // waiting for a command
	txSeg                  // issue the next segment's bus read
	txSegWait              // in the bus read
	txSend                 // hand the cell to its link
	txAdvance              // in the ring's tail advance
	txNotify               // in the notify-flag check
)

func (x *txDMA) init(b *Board) {
	x.b = b
	x.k = sim.Cont{Fn: txDMAStep, Arg: x}
}

// txDMAStep is the controller's event callback. Once the engine is
// shut down it does nothing, as a killed process would.
func txDMAStep(a any) {
	x := a.(*txDMA)
	if x.b.eng.Halted() {
		return
	}
	x.run()
}

func (x *txDMA) run() {
	b := x.b
	for {
		switch x.pc {
		case txIdle:
			cmd, ok := b.txCmds.RecvCont(x.k)
			if !ok {
				return
			}
			x.cmd, x.seg, x.pos, x.pc = cmd, 0, 0, txSeg
			if cmd.discard {
				x.consume()
			}
		case txSeg:
			if x.seg < len(x.cmd.segs) {
				x.bus = b.host.Bus.DMARead(x.cmd.segs[x.seg].Len)
				x.pc = txSegWait
				continue
			}
			x.assemble()
			x.pc = txSend
		case txSegWait:
			if !x.bus.Step(x.k) {
				return
			}
			seg := x.cmd.segs[x.seg]
			b.host.Mem.ReadInto(seg.Addr, x.stage[x.pos:x.pos+seg.Len])
			x.pos += seg.Len
			x.seg++
			x.pc = txSeg
		case txSend:
			if b.outLinks != nil {
				if !b.outLinks[x.cmd.linkIdx].SendCont(&x.cell, x.k) {
					return
				}
			} else if b.txSink != nil {
				b.txSink(x.cell, x.cmd.linkIdx)
			}
			cmd := x.cmd
			if cmd.advance == 0 {
				x.done()
				continue
			}
			if b.cfg.InterruptPerPDU {
				// Traditional transmit-complete interrupt (§2.1.2's
				// "traditionally signalled to the host using an
				// interrupt") — the ablation baseline.
				b.txIRQ(cmd.ch)
			}
			x.consume()
		case txAdvance:
			if !x.op.Step(x.k) {
				return
			}
			x.op.Notify(x.cmd.ch.TxRing, dpm.Board, x.cmd.ch.NotifyFlagOff())
			x.pc = txNotify
		case txNotify:
			if !x.op.Step(x.k) {
				return
			}
			if x.op.OK() {
				b.txIRQ(x.cmd.ch)
			}
			x.done()
		}
	}
}

// assemble frames the gathered payload as the command's cell, folding
// it into the channel's AAL5 CRC and length and closing them out with
// the trailer on the PDU's final cell.
func (x *txDMA) assemble() {
	b, cmd := x.b, x.cmd
	acc := &x.aal5[cmd.ch.Index]
	acc.crc = crc32.Update(acc.crc, crc32.IEEETable, x.stage[:cmd.dataLen])
	acc.len += uint32(cmd.dataLen)
	cellLen := cmd.dataLen
	if cmd.trailer {
		cellLen += cmd.pad
		atm.PutTrailer(x.stage[:cellLen+atm.TrailerSize], atm.Trailer{Length: acc.len, CRC: acc.crc})
		cellLen += atm.TrailerSize
		acc.crc, acc.len = 0, 0
	} else if cmd.pad > 0 {
		cellLen += cmd.pad
	}
	x.cell = atm.Cell{VCI: cmd.vci, EOM: cmd.eom, Last: cmd.last, Len: cellLen}
	if cmd.hasSeq {
		x.cell.Seq = cmd.seq
	}
	copy(x.cell.Payload[:], x.stage[:cellLen])
	b.stats.CellsTx++
	if b.eng.Recording() {
		b.eng.Emit(sim.TraceEvent{At: b.eng.Now(), Ph: 'i', Comp: b.trkTx, Cat: sim.CatCell, Name: "cell-tx", Arg: int64(x.cell.VCI)})
	}
}

// consume starts the ring's tail advance past the command's
// descriptors. peekAhead and the ring's reader cursor must move
// together with no scheduling point in between, or a concurrent gather
// by the transmit processor would compute a stale peek index; the
// advance moves its cursor before its dual-port store, so decrementing
// first keeps the pair atomic.
func (x *txDMA) consume() {
	ch := x.cmd.ch
	ch.peekAhead -= x.cmd.advance
	x.op.Advance(ch.TxRing, dpm.Board, x.cmd.advance)
	x.pc = txAdvance
}

// done returns the finished command and goes back to waiting.
func (x *txDMA) done() {
	x.b.putTxCmd(x.cmd)
	x.cmd, x.pc = nil, txIdle
}

// putTxCmd clears a finished command record and returns it to the pool.
func (b *Board) putTxCmd(cmd *txCmd) {
	*cmd = txCmd{segs: cmd.segs[:0]}
	b.txCmdPool.Put(cmd)
}
