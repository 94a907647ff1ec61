package board

import (
	"time"

	"repro/internal/atm"
	"repro/internal/dpm"
	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/sim"
)

// rxCmd is one DMA-write transaction for the receive DMA controller,
// optionally carrying descriptor pushes to publish once the data is in
// host memory (so a descriptor never becomes visible before its bytes).
// Records come from the board's pool (getRxCmd) and travel by pointer;
// the controller returns each one when its work is done, and its
// slices are kept for the next use.
type rxCmd struct {
	ch       *Channel
	segs     []mem.PhysBuffer
	data     []byte
	combined bool // an 88-byte double-cell transfer
	pushes   []queue.Desc
}

// combinePeekCost prices the receive processor's look at the second cell
// header when deciding on a double-cell DMA (§2.5.1).
const combinePeekCost = 150 * time.Nanosecond

// rxProc is the receive on-board processor: it drains the cell FIFO,
// demultiplexes by VCI (the early demultiplexing decision fbufs and ADCs
// rely on, §3.1), runs the skew-tolerant reassembly, and issues commands
// to the receive DMA controller — combining contiguous payload pairs
// into double-cell DMAs when so configured.
func (b *Board) rxProc(p *sim.Proc) {
	for {
		rc := b.rxFIFO.Recv(p)
		if rc.qch != nil {
			rc.qch.fifoCells-- // release the RxFIFOQuota charge
		}
		b.stats.CellsRx++
		p.Sleep(cellOverheadRx)
		b.handleCell(p, rc)
	}
}

func (b *Board) getReasm(ch *Channel, vci atm.VCI) *reasmState {
	rs := ch.reasm[vci]
	if rs == nil {
		if n := len(b.reasmPool); n > 0 {
			rs = b.reasmPool[n-1]
			b.reasmPool = b.reasmPool[:n-1]
			rs.reset(ch, vci)
		} else {
			rs = newReasmState(ch, vci, b.cfg.StripeWidth)
		}
		rs.firstArrival = b.eng.Now()
		ch.reasm[vci] = rs
		if b.mReasmOpen != nil {
			b.mReasmOpen.Observe(int64(b.OpenReassemblies()))
		}
	}
	return rs
}

// popFree takes the next receive buffer for ch: internally recycled
// scratch first, then the host-supplied free ring, validating ADC frame
// authorization (§3.2).
func (b *Board) popFree(p *sim.Proc, ch *Channel) (queue.Desc, bool) {
	for {
		if n := len(ch.stash); n > 0 {
			d := ch.stash[n-1]
			ch.stash = ch.stash[:n-1]
			return d, true
		}
		d, ok := ch.FreeRing.TryPop(p, dpm.Board)
		if !ok {
			return queue.Desc{}, false
		}
		if d.Len == 0 {
			// A zero-length buffer can never make reassembly progress;
			// discard it (firmware sanity check).
			continue
		}
		if !b.authorized(ch, d) {
			b.violation(ch, d.VCI, b.trkRx)
			continue // discard the illegal buffer, try the next
		}
		return d, true
	}
}

func (b *Board) handleCell(p *sim.Proc, rc rxCell) {
	ch := b.demux.Lookup(rc.c.VCI)
	if ch == nil || !ch.open {
		b.stats.CellsNoVCI++
		return
	}
	if ch.resync[rc.c.VCI] {
		// AAL5 resynchronization (Config.ReasmResync): a framing error
		// aborted a PDU mid-stream, so cells up to and including the next
		// Last cell belong to the abandoned PDU and must not open a new
		// reassembly — the Last cell marks the boundary where clean
		// framing resumes.
		b.stats.CellsResync++
		if rc.c.Last {
			delete(ch.resync, rc.c.VCI)
		}
		return
	}
	rs := b.getReasm(ch, rc.c.VCI)
	// Refresh the idle clock before any sleep below: a reassembly being
	// actively fed must never expire mid-cell.
	b.noteReasmActivity(rs)

	if b.cfg.RejectDuplicates && rs.duplicate(b.cfg.Strategy, rc) {
		b.stats.CellsDuplicate++
		if b.eng.Recording() {
			b.eng.Emit(sim.TraceEvent{At: b.eng.Now(), Ph: 'i', Comp: b.trkRx, Cat: sim.CatDrop, Name: "dup-cell", Arg: int64(rc.c.VCI)})
		}
		return
	}

	off, dataLen, complete, ok := rs.ingest(b.cfg.Strategy, rc, b.cfg.StripeWidth)
	if !ok {
		// Placement failure (e.g. partial cell under a placement
		// strategy): abandon the PDU.
		rs.dropping = true
		if rc.c.Last || rs.lastSeen {
			b.finishRxPDU(p, ch, rs, false)
		}
		return
	}

	cmd := b.getRxCmd()
	cmd.data = append(cmd.data, rc.c.Payload[:dataLen]...)
	n := dataLen
	if b.cfg.CheckCRC && dataLen > 0 {
		if rs.shadow == nil {
			rs.shadow = b.getShadow()
		}
		rs.record(off, rc.c.Payload[:dataLen])
	}

	// Double-cell combining: look at the next cell header; if its
	// payload lands immediately after this one, issue a single longer
	// DMA (§2.5.1). Skew makes this opportunity rare (§2.6).
	if b.cfg.RxDMA == DoubleCell && !complete && dataLen == atm.CellPayload && !rs.dropping {
		if next, okPeek := b.rxFIFO.Peek(); okPeek && next.c.VCI == rc.c.VCI && !next.c.Last &&
			!(b.cfg.RejectDuplicates && rs.duplicate(b.cfg.Strategy, next)) {
			if noff, okp := rs.wouldPlaceAt(b.cfg.Strategy, next, b.cfg.StripeWidth); okp && noff == off+dataLen {
				if popped, _ := b.rxFIFO.TryRecv(); popped.qch != nil {
					popped.qch.fifoCells-- // release the RxFIFOQuota charge
				}
				b.stats.CellsRx++
				p.Sleep(combinePeekCost)
				_, dl2, c2, ok2 := rs.ingest(b.cfg.Strategy, next, b.cfg.StripeWidth)
				if ok2 {
					cmd.data = append(cmd.data, next.c.Payload[:dl2]...)
					n += dl2
					complete = c2
					cmd.combined = true
					if b.cfg.CheckCRC && dl2 > 0 {
						rs.record(off+dataLen, next.c.Payload[:dl2])
					}
				}
			}
		}
	}

	if rs.dropping {
		b.putRxCmd(cmd)
		if complete {
			b.finishRxPDU(p, ch, rs, false)
		}
		return
	}

	if !complete && b.cfg.Strategy != ArrivalOrder && rs.errorDetected(b.cfg.StripeWidth) {
		// Cells were lost in the network: discard the PDU (AAL5-style).
		b.putRxCmd(cmd)
		if b.cfg.ReasmResync && !rc.c.Last {
			// The stream is mid-PDU: swallow the abandoned PDU's tail so
			// its Last cell cannot seed a frame-shifted reassembly.
			ch.resync[rc.c.VCI] = true
		}
		b.finishRxPDU(p, ch, rs, false)
		return
	}

	var haveBufs bool
	cmd.segs, haveBufs = rs.extent(off, n, cmd.segs, func() (queue.Desc, bool) { return b.popFree(p, ch) })
	if !haveBufs {
		b.putRxCmd(cmd)
		// Out of receive buffers: the board drops the PDU before it
		// consumes any host resources — under overload this is what
		// sheds low-priority traffic early (§3.1).
		rs.dropping = true
		if complete {
			b.finishRxPDU(p, ch, rs, false)
		}
		return
	}

	if complete && b.cfg.CheckCRC && !rs.crcOK() {
		// The recomputed AAL5 CRC disagrees with the trailer: a corrupted
		// cell slipped through with consistent framing. Discard the PDU
		// before it reaches the host (§2.3: error mechanisms are in place).
		b.putRxCmd(cmd)
		b.stats.PDUsCRCDropped++
		if b.eng.Recording() {
			b.eng.Emit(sim.TraceEvent{At: b.eng.Now(), Ph: 'i', Comp: b.trkRx, Cat: sim.CatDrop, Name: "crc-mismatch", Arg: int64(rc.c.VCI)})
		}
		b.finishRxPDU(p, ch, rs, false)
		return
	}

	cmd.ch = ch
	if complete {
		b.ensureEOPBuffer(p, ch, rs)
		stashed := len(ch.stash)
		cmd.pushes, ch.stash = rs.duePushes(true, cmd.pushes, ch.stash)
		b.stats.ScratchRecycled += int64(len(ch.stash) - stashed)
		b.stats.PDUsRx++
		if b.mReasmSpan != nil {
			b.mReasmSpan.Observe((b.eng.Now() - rs.firstArrival).Microseconds())
		}
		if b.eng.Recording() {
			b.eng.Emit(sim.TraceEvent{At: rs.firstArrival, Dur: b.eng.Now() - rs.firstArrival, Ph: 'X', Comp: b.trkRx, Cat: sim.CatPDU, Name: "reasm", Arg: int64(rs.pduLen)})
		}
		delete(ch.reasm, rc.c.VCI)
		b.retireReasm(rs)
	} else {
		cmd.pushes, _ = rs.duePushes(false, cmd.pushes, nil)
	}
	b.rxCmds.Send(p, cmd)
}

// ensureEOPBuffer guarantees a completed PDU has at least one buffer to
// carry its EOP descriptor (zero-length PDUs otherwise allocate none).
func (b *Board) ensureEOPBuffer(p *sim.Proc, ch *Channel, rs *reasmState) {
	if len(rs.bufs) > 0 {
		return
	}
	if d, ok := b.popFree(p, ch); ok {
		rs.bufs = append(rs.bufs, rxBuf{desc: d, base: 0})
		rs.covered += int(d.Len)
	}
}

// finishRxPDU retires an abandoned reassembly, recycling its buffers.
// If part of the PDU already streamed to the host, an abort-marker
// descriptor (FlagErr) follows it through the DMA command queue — so it
// orders behind any in-flight data — telling the driver to discard the
// partial delivery and recycle its buffers.
func (b *Board) finishRxPDU(p *sim.Proc, ch *Channel, rs *reasmState, delivered bool) {
	if !delivered && rs.anyPushed() {
		b.rxCmds.Send(p, b.abortCmd(ch, rs.vci))
		b.stats.RxAbortMarkers++
	}
	stashed := len(ch.stash)
	ch.stash = rs.abort(ch.stash)
	b.stats.ScratchRecycled += int64(len(ch.stash) - stashed)
	if !delivered {
		b.stats.PDUsDropped++
		if b.eng.Recording() {
			b.eng.Emit(sim.TraceEvent{At: b.eng.Now(), Ph: 'i', Comp: b.trkRx, Cat: sim.CatDrop, Name: "pdu-abandoned", Arg: int64(rs.vci)})
		}
	}
	delete(ch.reasm, rs.vci)
	b.retireReasm(rs)
}

// retireReasm returns a finished reassembly's shadow buffer and keeps
// the state for the next getReasm. Only the receive processor retires
// one, at the end of handling the cell that finished it: it is then the
// only holder. A reassembly the timeout sweep aborts is not reused,
// since the sweep runs between the processor's yields.
func (b *Board) retireReasm(rs *reasmState) {
	b.releaseShadow(rs)
	b.reasmPool = append(b.reasmPool, rs)
}

// rxDMA is the receive DMA controller, a hardware state machine the
// receive processor programs through rxCmds: one bus write transaction
// per command segment, then the memory/cache effect, then any
// descriptor publication that was gated on this data. It runs as a
// continuation: run is its one event callback, looping through its
// states until it must wait for a command, the bus, a dual-port access
// or the host.
type rxDMA struct {
	b   *Board
	k   sim.Cont // (rxDMAStep, the engine)
	pc  uint8
	cmd *rxCmd
	seg int // next segment of cmd
	pos int // its offset in cmd.data
	bus sim.Hold
	pi  int // next descriptor of cmd.pushes
	// The push of cmd.pushes[pi] (pushRecvDesc) in progress.
	ppc    uint8
	marker bool // pushing a deferred abort marker ahead of the descriptor
	try    recvTry
}

// rxDMA states.
const (
	rxIdle    uint8 = iota // waiting for a command
	rxSeg                  // issue the next segment's bus write
	rxSegWait              // in the bus write
	rxPush                 // publish the next descriptor
	rxPushing              // in pushRecvDesc
)

func (x *rxDMA) init(b *Board) {
	x.b, x.try.b = b, b
	x.k = sim.Cont{Fn: rxDMAStep, Arg: x}
}

// rxDMAStep is the controller's event callback. Once the engine is
// shut down it does nothing, as a killed process would.
func rxDMAStep(a any) {
	x := a.(*rxDMA)
	if x.b.eng.Halted() {
		return
	}
	x.run()
}

func (x *rxDMA) run() {
	b := x.b
	for {
		switch x.pc {
		case rxIdle:
			cmd, ok := b.rxCmds.RecvCont(x.k)
			if !ok {
				return
			}
			x.cmd, x.seg, x.pos, x.pc = cmd, 0, 0, rxSeg
		case rxSeg:
			cmd := x.cmd
			if x.seg < len(cmd.segs) {
				x.bus = b.host.Bus.DMAWrite(cmd.segs[x.seg].Len)
				x.pc = rxSegWait
				continue
			}
			if len(cmd.segs) == 1 && cmd.combined {
				b.stats.CombinedDMAs++
			} else {
				b.stats.SingleDMAs += int64(len(cmd.segs))
			}
			x.pi, x.pc = 0, rxPush
		case rxSegWait:
			if !x.bus.Step(x.k) {
				return
			}
			seg := x.cmd.segs[x.seg]
			b.host.Cache.DMAWrite(seg.Addr, x.cmd.data[x.pos:x.pos+seg.Len])
			x.pos += seg.Len
			x.seg++
			x.pc = rxSeg
		case rxPush:
			if x.pi == len(x.cmd.pushes) {
				b.putRxCmd(x.cmd)
				x.cmd, x.pc = nil, rxIdle
				continue
			}
			x.ppc, x.pc = pushStart, rxPushing
		case rxPushing:
			if !x.pushRecvDesc() {
				return
			}
			x.pi++
			x.pc = rxPush
		}
	}
}

// pushRecvDesc states.
const (
	pushStart  uint8 = iota
	pushMarker       // pushing the deferred abort marker
	pushDesc         // pushing the descriptor itself
)

// pushRecvDesc queues the filled-buffer descriptor cmd.pushes[pi] on
// its channel's receive ring, reporting false while it waits. The
// receive interrupt is asserted only when the ring was empty before
// the push — the §2.1.2 discipline that keeps interrupts well below
// one per PDU for bursts. It runs in the DMA controller, so a
// descriptor never becomes visible before its data.
//
// With RecvDropGrace set, a channel whose host never reaps its receive
// ring must not hold the shared controller hostage: after the grace
// wait the descriptor's PDU is dropped instead. Dropping preserves two
// driver invariants — a PDU's descriptors arrive whole (so every
// descriptor of a dropped PDU after the first is discarded until its
// EOP), and a partial delivery is always terminated by an abort marker
// (deferred until the ring has room, pushed before any later
// delivery).
func (x *rxDMA) pushRecvDesc() bool {
	b, ch, d := x.b, x.cmd.ch, x.cmd.pushes[x.pi]
	isMarker := d.Flags&queue.FlagErr != 0
	for {
		switch x.ppc {
		case pushStart:
			if b.cfg.RecvDropGrace == 0 {
				x.try.start(ch, d)
				x.ppc = pushDesc
				continue
			}
			if ch.rxDropUntilEOP {
				if !isMarker {
					if d.Flags&queue.FlagEOP != 0 {
						ch.rxDropUntilEOP = false
					}
					b.dropRecvDesc(ch, d)
					return true
				}
				// An abort marker terminates the dropped PDU too, and
				// subsumes any marker still owed.
				ch.rxDropUntilEOP = false
			}
			if ch.rxNeedAbort && !isMarker {
				// A deferred abort marker must precede the next delivery.
				x.try.start(ch, abortMarker(d.VCI))
				x.ppc = pushMarker
				continue
			}
			x.try.start(ch, d)
			x.ppc = pushDesc
		case pushMarker:
			if !x.try.step(x.k) {
				return false
			}
			if !x.try.ok {
				// Still no room: this PDU is dropped as well; the marker
				// stays owed (one marker suffices — no data reached the
				// ring in between).
				b.beginRecvDrop(ch, d)
				return true
			}
			b.stats.RxAbortMarkers++
			ch.rxNeedAbort = false
			ch.rxPduPushed = false
			x.try.start(ch, d)
			x.ppc = pushDesc
		case pushDesc:
			if !x.try.step(x.k) {
				return false
			}
			if b.cfg.RecvDropGrace == 0 {
				return true
			}
			switch {
			case !x.try.ok && isMarker:
				// The marker itself found no room; owe it.
				ch.rxNeedAbort = true
				ch.rxPduPushed = false
				b.dropRecvDesc(ch, d)
			case !x.try.ok:
				b.beginRecvDrop(ch, d)
			case isMarker:
				ch.rxNeedAbort = false
				ch.rxPduPushed = false
			default:
				ch.rxPduPushed = d.Flags&queue.FlagEOP == 0
			}
			return true
		}
	}
}

// recvRetry is how long the receive DMA controller waits before
// retrying a push onto a full receive ring.
const recvRetry = 2 * time.Microsecond

// recvTry is one attempt to push a descriptor onto a channel's receive
// ring: refresh the tail so emptiness is judged against the host's
// actual consumption, push, and interrupt on the empty→non-empty
// transition (or unconditionally under the traditional ablation). While
// the ring is full it retries every recvRetry — forever, or, with
// RecvDropGrace, re-reading the tail each time and giving up (ok false)
// once the grace has passed.
type recvTry struct {
	b        *Board
	ch       *Channel
	d        queue.Desc
	pc       uint8
	op       queue.Op
	wait     sim.Hold
	wasEmpty bool
	waited   time.Duration
	ok       bool
}

// recvTry states.
const (
	tryObserve uint8 = iota // refresh the tail
	tryPush                 // push
	tryRetry                // wait recvRetry
)

func (t *recvTry) start(ch *Channel, d queue.Desc) {
	t.ch, t.d, t.waited, t.ok = ch, d, 0, false
	t.op = ch.RecvRing.Observe(dpm.Board)
	t.pc = tryObserve
}

func (t *recvTry) step(k sim.Cont) bool {
	b, ring, grace := t.b, t.ch.RecvRing, t.b.cfg.RecvDropGrace
	for {
		switch t.pc {
		case tryObserve:
			if !t.op.Step(k) {
				return false
			}
			t.wasEmpty = ring.WriterLen() == 0
			t.op = ring.Push(dpm.Board, t.d)
			t.pc = tryPush
		case tryPush:
			if !t.op.Step(k) {
				return false
			}
			if t.op.OK() {
				b.recvPushIRQ(t.ch, t.wasEmpty)
				t.ok = true
				return true
			}
			if grace > 0 && t.waited >= grace {
				return true
			}
			t.wait = b.eng.Delay(recvRetry)
			t.pc = tryRetry
		case tryRetry:
			if !t.wait.Step(k) {
				return false
			}
			if grace > 0 {
				t.waited += recvRetry
				t.op = ring.Observe(dpm.Board)
				t.pc = tryObserve
			} else {
				t.op = ring.Push(dpm.Board, t.d)
				t.pc = tryPush
			}
		}
	}
}

func (b *Board) recvPushIRQ(ch *Channel, wasEmpty bool) {
	if b.cfg.InterruptPerPDU || wasEmpty {
		b.stats.RxIRQs++
		if b.eng.Recording() {
			b.eng.Emit(sim.TraceEvent{At: b.eng.Now(), Ph: 'i', Comp: b.trkRx, Cat: sim.CatIRQ, Name: "rx-irq", Arg: int64(ch.Index)})
		}
		b.irq(RxIRQBase + ch.Index)
	}
}

// beginRecvDrop records the start of a dropped PDU at descriptor d:
// the buffer is recycled on-board, the rest of the PDU will be
// discarded, and an abort marker is owed if part of the PDU already
// reached the host.
func (b *Board) beginRecvDrop(ch *Channel, d queue.Desc) {
	b.dropRecvDesc(ch, d)
	if d.Flags&queue.FlagEOP == 0 {
		ch.rxDropUntilEOP = true
	}
	if ch.rxPduPushed {
		ch.rxNeedAbort = true
		ch.rxPduPushed = false
	}
}

// dropRecvDesc counts one dropped descriptor and recycles its buffer
// into the channel's scratch stash (the board keeps the buffer: the
// host never saw the descriptor, so only the board can reuse it).
func (b *Board) dropRecvDesc(ch *Channel, d queue.Desc) {
	ch.ringDropped++
	b.stats.RecvRingDropped++
	if d.Len > 0 {
		ch.stash = append(ch.stash, queue.Desc{Addr: d.Addr, Len: d.Len})
		b.stats.ScratchRecycled++
	}
	if b.eng.Recording() {
		b.eng.Emit(sim.TraceEvent{At: b.eng.Now(), Ph: 'i', Comp: b.trkRx, Cat: sim.CatDrop, Name: "recv-ring-drop", Arg: int64(ch.Index)})
	}
}

// abortMarker is the descriptor telling the driver to discard the
// partial delivery of vci's PDU.
func abortMarker(vci atm.VCI) queue.Desc {
	return queue.Desc{VCI: vci, Flags: queue.FlagErr}
}

// abortCmd returns a command that publishes only vci's abort marker.
func (b *Board) abortCmd(ch *Channel, vci atm.VCI) *rxCmd {
	cmd := b.getRxCmd()
	cmd.ch = ch
	cmd.pushes = append(cmd.pushes, abortMarker(vci))
	return cmd
}

// getRxCmd takes a command record from the pool (or makes one).
func (b *Board) getRxCmd() *rxCmd {
	if n := len(b.rxCmdPool); n > 0 {
		cmd := b.rxCmdPool[n-1]
		b.rxCmdPool = b.rxCmdPool[:n-1]
		return cmd
	}
	return &rxCmd{data: make([]byte, 0, 2*atm.CellPayload)}
}

// putRxCmd returns a finished or abandoned command record to the pool.
func (b *Board) putRxCmd(cmd *rxCmd) {
	*cmd = rxCmd{segs: cmd.segs[:0], data: cmd.data[:0], pushes: cmd.pushes[:0]}
	b.rxCmdPool = append(b.rxCmdPool, cmd)
}
