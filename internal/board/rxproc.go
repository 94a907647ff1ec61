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
// Records come from the board's pool (rxCmdPool) and travel by pointer;
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

// rxProcessor is the receive on-board processor: it drains the cell
// FIFO, demultiplexes by VCI (the early demultiplexing decision fbufs
// and ADCs rely on, §3.1), runs the skew-tolerant reassembly, and
// issues commands to the receive DMA controller — combining contiguous
// payload pairs into double-cell DMAs when so configured. It is
// firmware written as a resumable state machine: run is its one event
// callback, looping through its states until it must wait for a cell,
// for its per-cell time, for a free-ring read or for room in the DMA
// command queue.
type rxProcessor struct {
	b  *Board
	k  sim.Cont // (rxProcStep, the processor)
	pc uint8
	// The cell in hand, and its successor when the two are combined
	// into one double-cell DMA.
	rc, rc2 rxCell
	ch      *Channel
	rs      *reasmState
	cmd     *rxCmd // the command being built, or an abort marker
	off, n  int    // the PDU bytes cmd writes
	done    bool   // the cell completes its PDU
	// The free-ring pop in progress (popFree).
	popping bool
	op      queue.Op
	buf     queue.Desc // the buffer popFree took
	bufOK   bool
}

// rxProcessor states.
const (
	rxpWait    uint8 = iota // waiting for a cell
	rxpCell                 // the cell's firmware time is up: demultiplex and ingest it
	rxpCombine              // the combining peek's time is up: ingest the second cell
	rxpPlace                // check the PDU, then pop buffers until the cell's bytes are covered
	rxpEOP                  // a completed PDU takes a buffer for its EOP descriptor if it has none
	rxpSend                 // queue cmd for the DMA controller
	rxpAbort                // queue an abandoned PDU's abort marker
)

func (x *rxProcessor) init(b *Board) {
	x.b = b
	x.k = sim.Cont{Fn: rxProcStep, Arg: x}
}

// rxProcStep is the processor's event callback. Once the engine is
// shut down it does nothing, as a killed process would.
func rxProcStep(a any) {
	x := a.(*rxProcessor)
	if x.b.eng.Halted() {
		return
	}
	x.run()
}

func (x *rxProcessor) run() {
	b := x.b
	for {
		switch x.pc {
		case rxpWait:
			rc, ok := b.rxFIFO.RecvCont(x.k)
			if !ok {
				return
			}
			if rc.qch != nil {
				rc.qch.fifoCells-- // release the RxFIFOQuota charge
			}
			b.stats.CellsRx++
			x.rc, x.pc = rc, rxpCell
			if !b.eng.WakeAt(b.eng.Now().Add(cellOverheadRx), x.k) {
				return
			}
		case rxpCell:
			if !x.ingest() {
				return
			}
		case rxpCombine:
			rs := x.rs
			_, dl2, c2, ok2 := rs.ingest(b.cfg.Strategy, x.rc2, b.cfg.StripeWidth)
			if ok2 {
				x.cmd.data = append(x.cmd.data, x.rc2.c.Payload[:dl2]...)
				x.cmd.combined = true
				if b.cfg.CheckCRC && dl2 > 0 {
					rs.record(x.off+x.n, x.rc2.c.Payload[:dl2])
				}
				x.n += dl2
				x.done = c2
			}
			x.pc = rxpPlace
		case rxpPlace:
			if !x.place() {
				return
			}
		case rxpEOP:
			rs := x.rs
			if len(rs.bufs) == 0 {
				if !x.popFree() {
					return
				}
				if x.bufOK {
					rs.addBuf(x.buf)
				}
			}
			x.complete()
			x.pc = rxpSend
		case rxpSend:
			if !b.rxCmds.SendCont(x.cmd, x.k) {
				return
			}
			x.cmd, x.pc = nil, rxpWait
		case rxpAbort:
			if !b.rxCmds.SendCont(x.cmd, x.k) {
				return
			}
			b.stats.RxAbortMarkers++
			x.cmd = nil
			b.dropReasm(x.ch, x.rs, &b.stats.PDUsDropped, "pdu-abandoned")
			x.pc = rxpWait
		}
	}
}

// holds reports whether x is handling a cell of rs's PDU: it has
// ingested the cell and not yet finished with rs.
func (x *rxProcessor) holds(rs *reasmState) bool {
	return x.rs == rs && x.pc != rxpWait && x.pc != rxpCell && x.pc != rxpSend
}

// ingest demultiplexes the cell in hand and places it in its
// reassembly, building the DMA command for its bytes; with double-cell
// DMA it looks at the next cell header and, if that payload lands
// right after this one, takes the next cell into the same command
// (§2.5.1). Skew makes this opportunity rare (§2.6). It reports false
// when it has to wait out the look at the second header.
func (x *rxProcessor) ingest() bool {
	b, rc := x.b, &x.rc
	x.pc = rxpWait
	ch := b.demux.Lookup(rc.c.VCI)
	if ch == nil || !ch.open {
		b.stats.CellsNoVCI++
		return true
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
		return true
	}
	rs := b.getReasm(ch, rc.c.VCI)
	x.ch, x.rs = ch, rs
	// Refresh the idle clock before any wait below: a reassembly being
	// actively fed must never expire mid-cell.
	b.noteReasmActivity(rs)

	if b.cfg.RejectDuplicates && rs.duplicate(b.cfg.Strategy, *rc) {
		b.stats.CellsDuplicate++
		if b.eng.Recording() {
			b.eng.Emit(sim.TraceEvent{At: b.eng.Now(), Ph: 'i', Comp: b.trkRx, Cat: sim.CatDrop, Name: "dup-cell", Arg: int64(rc.c.VCI)})
		}
		return true
	}

	off, dataLen, complete, ok := rs.ingest(b.cfg.Strategy, *rc, b.cfg.StripeWidth)
	if !ok {
		// Placement failure (e.g. partial cell under a placement
		// strategy): abandon the PDU.
		rs.dropping = true
		if rc.c.Last || rs.lastSeen {
			x.abandon()
		}
		return true
	}

	cmd := sim.TakeNew(&b.rxCmdPool)
	cmd.data = append(cmd.data, rc.c.Payload[:dataLen]...)
	x.cmd, x.off, x.n, x.done = cmd, off, dataLen, complete
	if b.cfg.CheckCRC && dataLen > 0 {
		rs.record(off, rc.c.Payload[:dataLen])
	}
	x.pc = rxpPlace

	if b.cfg.RxDMA == DoubleCell && !complete && dataLen == atm.CellPayload && !rs.dropping {
		if next, okPeek := b.rxFIFO.Peek(); okPeek && next.c.VCI == rc.c.VCI && !next.c.Last &&
			!(b.cfg.RejectDuplicates && rs.duplicate(b.cfg.Strategy, next)) {
			if noff, okp := rs.wouldPlaceAt(b.cfg.Strategy, next, b.cfg.StripeWidth); okp && noff == off+dataLen {
				if popped, _ := b.rxFIFO.TryRecv(); popped.qch != nil {
					popped.qch.fifoCells-- // release the RxFIFOQuota charge
				}
				b.stats.CellsRx++
				x.rc2, x.pc = next, rxpCombine
				return b.eng.WakeAt(b.eng.Now().Add(combinePeekCost), x.k)
			}
		}
	}
	return true
}

// place checks the PDU the cell belongs to and pops free buffers until
// they cover the cell's bytes, then slices the command's extents. It
// reports false while it waits on a free-ring read.
func (x *rxProcessor) place() bool {
	b, ch, rs, cmd := x.b, x.ch, x.rs, x.cmd
	if !x.popping {
		if rs.dropping {
			b.putRxCmd(cmd)
			x.cmd, x.pc = nil, rxpWait
			if x.done {
				x.abandon()
			}
			return true
		}
		if !x.done && b.cfg.Strategy != ArrivalOrder && rs.errorDetected(b.cfg.StripeWidth) {
			// Cells were lost in the network: discard the PDU (AAL5-style).
			b.putRxCmd(cmd)
			x.cmd = nil
			if b.cfg.ReasmResync && !x.rc.c.Last {
				// The stream is mid-PDU: swallow the abandoned PDU's tail so
				// its Last cell cannot seed a frame-shifted reassembly.
				ch.resync[x.rc.c.VCI] = true
			}
			x.abandon()
			return true
		}
	}
	for x.off+x.n > rs.covered {
		if !x.popFree() {
			return false
		}
		if !x.bufOK {
			b.putRxCmd(cmd)
			x.cmd, x.pc = nil, rxpWait
			// Out of receive buffers: the board drops the PDU before it
			// consumes any host resources — under overload this is what
			// sheds low-priority traffic early (§3.1).
			rs.dropping = true
			if x.done {
				x.abandon()
			}
			return true
		}
		rs.addBuf(x.buf)
	}
	cmd.segs = rs.slice(x.off, x.n, cmd.segs)

	if x.done && b.cfg.CheckCRC && !rs.crcOK() {
		// The recomputed AAL5 CRC disagrees with the trailer: a corrupted
		// cell slipped through with consistent framing. Discard the PDU
		// before it reaches the host (§2.3: error mechanisms are in place).
		b.putRxCmd(cmd)
		x.cmd = nil
		b.stats.PDUsCRCDropped++
		if b.eng.Recording() {
			b.eng.Emit(sim.TraceEvent{At: b.eng.Now(), Ph: 'i', Comp: b.trkRx, Cat: sim.CatDrop, Name: "crc-mismatch", Arg: int64(x.rc.c.VCI)})
		}
		x.abandon()
		return true
	}

	cmd.ch = ch
	if x.done {
		x.pc = rxpEOP
	} else {
		cmd.pushes, _ = rs.duePushes(false, cmd.pushes, nil)
		x.pc = rxpSend
	}
	return true
}

// complete publishes a finished PDU's remaining descriptors through
// the command and retires its reassembly.
func (x *rxProcessor) complete() {
	b, ch, rs, cmd := x.b, x.ch, x.rs, x.cmd
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
	delete(ch.reasm, x.rc.c.VCI)
	b.reasmPool.Put(rs)
}

// abandon retires x.rs, an abandoned reassembly. If part of the PDU
// already streamed to the host, an abort-marker descriptor (FlagErr)
// first follows it through the DMA command queue — so it orders behind
// any in-flight data — telling the driver to discard the partial
// delivery and recycle its buffers.
func (x *rxProcessor) abandon() {
	if x.rs.anyPushed() {
		x.cmd = x.b.abortCmd(x.ch, x.rs.vci)
		x.pc = rxpAbort
		return
	}
	x.b.dropReasm(x.ch, x.rs, &x.b.stats.PDUsDropped, "pdu-abandoned")
	x.pc = rxpWait
}

// popFree takes the next receive buffer for x.ch into x.buf: internally
// recycled scratch first, then the host-supplied free ring, validating
// ADC frame authorization (§3.2). It reports false while it waits on
// the ring; bufOK is false when there is none.
func (x *rxProcessor) popFree() bool {
	b, ch := x.b, x.ch
	for {
		if !x.popping {
			if n := len(ch.stash); n > 0 {
				x.buf, x.bufOK = ch.stash[n-1], true
				ch.stash = ch.stash[:n-1]
				return true
			}
			x.op.Pop(ch.FreeRing, dpm.Board)
			x.popping = true
		}
		if !x.op.Step(x.k) {
			return false
		}
		x.popping = false
		d := x.op.Desc()
		if !x.op.OK() {
			x.bufOK = false
			return true
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
		x.buf, x.bufOK = d, true
		return true
	}
}

func (b *Board) getReasm(ch *Channel, vci atm.VCI) *reasmState {
	rs := ch.reasm[vci]
	if rs == nil {
		if rs = b.reasmPool.Take(); rs != nil {
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

// dropReasm retires an abandoned or timed-out reassembly, recycling its
// buffers, and counts it in *count and traces it as why; any abort
// marker it owed the host has been queued.
func (b *Board) dropReasm(ch *Channel, rs *reasmState, count *int64, why string) {
	stashed := len(ch.stash)
	ch.stash = rs.abort(ch.stash)
	b.stats.ScratchRecycled += int64(len(ch.stash) - stashed)
	*count++
	if b.eng.Recording() {
		b.eng.Emit(sim.TraceEvent{At: b.eng.Now(), Ph: 'i', Comp: b.trkRx, Cat: sim.CatDrop, Name: why, Arg: int64(rs.vci)})
	}
	delete(ch.reasm, rs.vci)
	b.reasmPool.Put(rs)
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
	t.op.Observe(ch.RecvRing, dpm.Board)
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
			t.op.Push(ring, dpm.Board, t.d)
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
				t.op.Observe(ring, dpm.Board)
				t.pc = tryObserve
			} else {
				t.op.Push(ring, dpm.Board, t.d)
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
	cmd := sim.TakeNew(&b.rxCmdPool)
	cmd.ch = ch
	cmd.pushes = append(cmd.pushes, abortMarker(vci))
	return cmd
}

// putRxCmd clears a finished or abandoned command record and returns
// it to the pool.
func (b *Board) putRxCmd(cmd *rxCmd) {
	*cmd = rxCmd{segs: cmd.segs[:0], data: cmd.data[:0], pushes: cmd.pushes[:0]}
	b.rxCmdPool.Put(cmd)
}
