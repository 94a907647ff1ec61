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

	data := b.getRxData()
	data = append(data, rc.c.Payload[:dataLen]...)
	n := dataLen
	combined := false
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
					data = append(data, next.c.Payload[:dl2]...)
					n += dl2
					complete = c2
					combined = true
					if b.cfg.CheckCRC && dl2 > 0 {
						rs.record(off+dataLen, next.c.Payload[:dl2])
					}
				}
			}
		}
	}

	if rs.dropping {
		b.putRxData(data)
		if complete {
			b.finishRxPDU(p, ch, rs, false)
		}
		return
	}

	if !complete && b.cfg.Strategy != ArrivalOrder && rs.errorDetected(b.cfg.StripeWidth) {
		// Cells were lost in the network: discard the PDU (AAL5-style).
		b.putRxData(data)
		if b.cfg.ReasmResync && !rc.c.Last {
			// The stream is mid-PDU: swallow the abandoned PDU's tail so
			// its Last cell cannot seed a frame-shifted reassembly.
			ch.resync[rc.c.VCI] = true
		}
		b.finishRxPDU(p, ch, rs, false)
		return
	}

	segs, haveBufs := rs.extent(off, n, b.getSegs(), func() (queue.Desc, bool) { return b.popFree(p, ch) })
	if !haveBufs {
		b.putRxData(data)
		b.putSegs(segs)
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
		b.putRxData(data)
		b.putSegs(segs)
		b.stats.PDUsCRCDropped++
		if b.eng.Recording() {
			b.eng.Emit(sim.TraceEvent{At: b.eng.Now(), Ph: 'i', Comp: b.trkRx, Cat: sim.CatDrop, Name: "crc-mismatch", Arg: int64(rc.c.VCI)})
		}
		b.finishRxPDU(p, ch, rs, false)
		return
	}

	cmd := rxCmd{ch: ch, segs: segs, data: data, combined: combined}
	if complete {
		b.ensureEOPBuffer(p, ch, rs)
		stashed := len(ch.stash)
		cmd.pushes, ch.stash = rs.duePushes(true, b.getDescs(), ch.stash)
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
		cmd.pushes, _ = rs.duePushes(false, b.getDescs(), nil)
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
		b.rxCmds.Send(p, rxCmd{ch: ch, pushes: append(b.getDescs(), abortMarker(rs.vci))})
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

// rxDMAEngine is the receive DMA controller: one bus write transaction
// per command segment, then the memory/cache effect, then any descriptor
// publication that was gated on this data.
func (b *Board) rxDMAEngine(p *sim.Proc) {
	for {
		cmd := b.rxCmds.Recv(p)
		pos := 0
		for _, seg := range cmd.segs {
			b.host.Bus.DMAWrite(p, seg.Len)
			b.host.Cache.DMAWrite(seg.Addr, cmd.data[pos:pos+seg.Len])
			pos += seg.Len
		}
		if len(cmd.segs) == 1 && cmd.combined {
			b.stats.CombinedDMAs++
		} else {
			b.stats.SingleDMAs += int64(len(cmd.segs))
		}
		for _, d := range cmd.pushes {
			b.pushRecvDesc(p, cmd.ch, d)
		}
		b.putRxData(cmd.data)
		b.putSegs(cmd.segs)
		b.putDescs(cmd.pushes)
	}
}

// abortMarker is the descriptor telling the driver to discard the
// partial delivery of vci's PDU.
func abortMarker(vci atm.VCI) queue.Desc {
	return queue.Desc{VCI: vci, Flags: queue.FlagErr}
}
