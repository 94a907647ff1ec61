package board

import (
	"hash/crc32"
	"time"

	"repro/internal/atm"
	"repro/internal/dpm"
	"repro/internal/hostsim"
	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/sim"
)

// The proc forms of the board's processors, DMA controllers and
// fictitious-PDU generator, as they ran before they became
// continuations. They are the reference FuzzBoardMatchesProcs checks
// the continuations against: the same board, the same traffic, every
// event at the same instant.

// newProcBoard builds a board whose processors, DMA controllers and
// generator run as the reference procs, started in the slots New
// starts the continuations in.
func newProcBoard(e *sim.Engine, h *hostsim.Host, cfg Config) *Board {
	b := build(e, h, cfg)
	e.Go(b.cfg.Name+"-txproc", b.txProc)
	e.Go(b.cfg.Name+"-txdma", b.txDMAEngine)
	e.Go(b.cfg.Name+"-rxproc", b.rxProc)
	e.Go(b.cfg.Name+"-rxdma", b.rxDMAEngine)
	e.Go(b.cfg.Name+"-fict", b.fictProc)
	return b
}

// rxDMAEngine is the receive DMA controller as a proc.
func (b *Board) rxDMAEngine(p *sim.Proc) {
	for {
		cmd := b.rxCmds.Recv(p)
		pos := 0
		for _, seg := range cmd.segs {
			b.host.Bus.DMAWrite(seg.Len).Do(p)
			b.host.Cache.DMAWrite(seg.Addr, cmd.data[pos:pos+seg.Len])
			pos += seg.Len
		}
		if len(cmd.segs) == 1 && cmd.combined {
			b.stats.CombinedDMAs++
		} else {
			b.stats.SingleDMAs += int64(len(cmd.segs))
		}
		for _, d := range cmd.pushes {
			b.procPushRecvDesc(p, cmd.ch, d)
		}
		b.putRxCmd(cmd)
	}
}

func (b *Board) procPushRecvDesc(p *sim.Proc, ch *Channel, d queue.Desc) {
	if b.cfg.RecvDropGrace > 0 {
		b.procPushRecvDescBounded(p, ch, d)
		return
	}
	ch.RecvRing.ObserveTail(p, dpm.Board)
	wasEmpty := ch.RecvRing.WriterLen() == 0
	for !ch.RecvRing.TryPush(p, dpm.Board, d) {
		p.Sleep(2 * time.Microsecond)
	}
	b.recvPushIRQ(ch, wasEmpty)
}

func (b *Board) procPushRecvDescBounded(p *sim.Proc, ch *Channel, d queue.Desc) {
	isMarker := d.Flags&queue.FlagErr != 0
	if ch.rxDropUntilEOP {
		if !isMarker {
			if d.Flags&queue.FlagEOP != 0 {
				ch.rxDropUntilEOP = false
			}
			b.dropRecvDesc(ch, d)
			return
		}
		ch.rxDropUntilEOP = false
	}
	if ch.rxNeedAbort && !isMarker {
		marker := queue.Desc{VCI: d.VCI, Flags: queue.FlagErr}
		if !b.procTryPushRecv(p, ch, marker) {
			b.beginRecvDrop(ch, d)
			return
		}
		b.stats.RxAbortMarkers++
		ch.rxNeedAbort = false
		ch.rxPduPushed = false
	}
	if !b.procTryPushRecv(p, ch, d) {
		if isMarker {
			ch.rxNeedAbort = true
			ch.rxPduPushed = false
			b.dropRecvDesc(ch, d)
			return
		}
		b.beginRecvDrop(ch, d)
		return
	}
	if isMarker {
		ch.rxNeedAbort = false
		ch.rxPduPushed = false
	} else {
		ch.rxPduPushed = d.Flags&queue.FlagEOP == 0
	}
}

func (b *Board) procTryPushRecv(p *sim.Proc, ch *Channel, d queue.Desc) bool {
	const step = 2 * time.Microsecond
	var waited time.Duration
	ch.RecvRing.ObserveTail(p, dpm.Board)
	wasEmpty := ch.RecvRing.WriterLen() == 0
	for !ch.RecvRing.TryPush(p, dpm.Board, d) {
		if waited >= b.cfg.RecvDropGrace {
			return false
		}
		p.Sleep(step)
		waited += step
		ch.RecvRing.ObserveTail(p, dpm.Board)
		wasEmpty = ch.RecvRing.WriterLen() == 0
	}
	b.recvPushIRQ(ch, wasEmpty)
	return true
}

// txDMAEngine is the transmit DMA controller as a proc.
func (b *Board) txDMAEngine(p *sim.Proc) {
	type aal5 struct {
		crc uint32
		len uint32
	}
	state := make(map[int]*aal5)
	table := crc32.MakeTable(crc32.IEEE)
	var payload [atm.CellPayload]byte
	for {
		cmd := b.txCmds.Recv(p)
		if cmd.discard {
			cmd.ch.peekAhead -= cmd.advance
			readerAdvance(p, cmd.ch.TxRing, cmd.advance)
			b.procCheckNotifyFlag(p, cmd.ch)
			b.putTxCmd(cmd)
			continue
		}
		acc := state[cmd.ch.Index]
		if acc == nil {
			acc = &aal5{}
			state[cmd.ch.Index] = acc
		}
		pos := 0
		for _, seg := range cmd.segs {
			b.host.Bus.DMARead(seg.Len).Do(p)
			b.host.Mem.ReadInto(seg.Addr, payload[pos:pos+seg.Len])
			pos += seg.Len
		}
		clear(payload[cmd.dataLen:]) // zero pad
		acc.crc = crc32.Update(acc.crc, table, payload[:cmd.dataLen])
		acc.len += uint32(cmd.dataLen)
		cellLen := cmd.dataLen
		if cmd.trailer {
			cellLen += cmd.pad
			tr := atm.Trailer{Length: acc.len, CRC: acc.crc}
			atm.PutTrailer(payload[:cellLen+atm.TrailerSize], tr)
			cellLen += atm.TrailerSize
			*acc = aal5{}
		} else if cmd.pad > 0 {
			cellLen += cmd.pad
		}
		cell := atm.Cell{VCI: cmd.vci, EOM: cmd.eom, Last: cmd.last, Len: cellLen}
		if cmd.hasSeq {
			cell.Seq = cmd.seq
		}
		copy(cell.Payload[:], payload[:cellLen])
		b.stats.CellsTx++
		if b.eng.Recording() {
			b.eng.Emit(sim.TraceEvent{At: b.eng.Now(), Ph: 'i', Comp: b.trkTx, Cat: sim.CatCell, Name: "cell-tx", Arg: int64(cell.VCI)})
		}
		if b.outLinks != nil {
			b.outLinks[cmd.linkIdx].Send(p, cell)
		} else if b.txSink != nil {
			b.txSink(cell, cmd.linkIdx)
		}
		if cmd.advance > 0 {
			if b.cfg.InterruptPerPDU {
				b.stats.TxIRQs++
				b.irq(TxIRQBase + cmd.ch.Index)
			}
			cmd.ch.peekAhead -= cmd.advance
			readerAdvance(p, cmd.ch.TxRing, cmd.advance)
			b.procCheckNotifyFlag(p, cmd.ch)
		}
		b.putTxCmd(cmd)
	}
}

func (b *Board) procCheckNotifyFlag(p *sim.Proc, ch *Channel) {
	if b.DPM.ReadWord(p, dpm.Board, ch.NotifyFlagOff()) == 0 {
		return
	}
	if readerLen(p, ch.TxRing) <= ch.TxRing.Slots()/2 {
		b.DPM.WriteWord(p, dpm.Board, ch.NotifyFlagOff(), 0)
		b.stats.TxIRQs++
		b.irq(TxIRQBase + ch.Index)
	}
}

// fictProc is the fictitious-PDU generator as a proc.
func (b *Board) fictProc(p *sim.Proc) {
	var cells []atm.Cell
	for {
		req := b.fireCtl.Recv(p)
		if req.stop {
			continue
		}
		interval := req.interval
		if interval == 0 {
			interval = DefaultFictInterval
		}
		sent := 0
		for req.count == 0 || sent < req.count {
			if r, ok := b.fireCtl.TryRecv(); ok && r.stop {
				break
			}
			for m := 0; m < req.msgs; m++ {
				for _, pdu := range req.src(m) {
					cells = atm.SegmentInto(cells, req.vci, pdu, b.cfg.StripeWidth, b.cfg.Strategy.UsesSeqNumbers())
					for i := range cells {
						r := sim.TakeNew(b.cells)
						*r = cells[i]
						b.rxFIFO.Send(p, rxCell{c: r, link: int32(i % b.cfg.StripeWidth)})
						if b.mRxFIFOHW != nil {
							b.mRxFIFOHW.Observe(int64(b.rxFIFO.Len()))
						}
						if b.eng.Recording() {
							b.eng.Emit(sim.TraceEvent{At: b.eng.Now(), Ph: 'C', Comp: b.trkRx, Cat: sim.CatQueue, Name: "rx-fifo", Arg: int64(b.rxFIFO.Len())})
						}
						if interval > 0 {
							p.Sleep(interval)
						}
					}
				}
			}
			sent++
		}
	}
}

// The ring operations the processors made as procs.

func readerPeek(p *sim.Proc, r *queue.Ring, k int) (queue.Desc, bool) {
	var o queue.Op
	o.Peek(r, dpm.Board, k)
	p.Await(&o)
	return o.Desc(), o.OK()
}

func readerAdvance(p *sim.Proc, r *queue.Ring, n int) {
	var o queue.Op
	o.Advance(r, dpm.Board, n)
	p.Await(&o)
}

func readerNotify(p *sim.Proc, r *queue.Ring, flag uint32) bool {
	var o queue.Op
	o.Notify(r, dpm.Board, flag)
	p.Await(&o)
	return o.OK()
}

func readerLen(p *sim.Proc, r *queue.Ring) int {
	var o queue.Op
	o.Len(r, dpm.Board)
	p.Await(&o)
	return o.N()
}

// extent returns the host-memory extents covering [off, off+n) of the
// PDU appended to segs, popping free buffers as needed; ok=false means
// the channel is out of receive buffers.
func (rs *reasmState) extent(off, n int, segs []mem.PhysBuffer, pop func() (queue.Desc, bool)) ([]mem.PhysBuffer, bool) {
	for off+n > rs.covered {
		d, got := pop()
		if !got {
			return segs, false
		}
		rs.addBuf(d)
	}
	return rs.slice(off, n, segs), true
}

// The receive and transmit processors as procs.

// rxProc is the receive on-board processor: it drains the cell FIFO,
// demultiplexes by VCI (the early demultiplexing decision fbufs and ADCs
// rely on, §3.1), runs the skew-tolerant reassembly, and issues commands
// to the receive DMA controller — combining contiguous payload pairs
// into double-cell DMAs when so configured.
func (b *Board) rxProc(p *sim.Proc) {
	for {
		rc := b.rxFIFO.Recv(p)
		b.releaseQuota(rc)
		b.stats.CellsRx++
		p.Sleep(cellOverheadRx)
		b.handleCell(p, &rc)
		b.cells.Put(rc.c)
	}
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

func (b *Board) handleCell(p *sim.Proc, rc *rxCell) {
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

	cmd := sim.TakeNew(&b.rxCmdPool)
	cmd.data = append(cmd.data, rc.c.Payload[:dataLen]...)
	n := dataLen
	if b.cfg.CheckCRC && dataLen > 0 {
		rs.record(off, rc.c.Payload[:dataLen])
	}

	// Double-cell combining: look at the next cell header; if its
	// payload lands immediately after this one, issue a single longer
	// DMA (§2.5.1). Skew makes this opportunity rare (§2.6).
	if b.cfg.RxDMA == DoubleCell && !complete && dataLen == atm.CellPayload && !rs.dropping {
		if next, okPeek := b.rxFIFO.Peek(); okPeek && next.c.VCI == rc.c.VCI && !next.c.Last &&
			!(b.cfg.RejectDuplicates && rs.duplicate(b.cfg.Strategy, &next)) {
			if noff, okp := rs.wouldPlaceAt(b.cfg.Strategy, &next, b.cfg.StripeWidth); okp && noff == off+dataLen {
				popped, _ := b.rxFIFO.TryRecv()
				b.releaseQuota(popped)
				b.stats.CellsRx++
				p.Sleep(combinePeekCost)
				_, dl2, c2, ok2 := rs.ingest(b.cfg.Strategy, &next, b.cfg.StripeWidth)
				if ok2 {
					cmd.data = append(cmd.data, next.c.Payload[:dl2]...)
					n += dl2
					complete = c2
					cmd.combined = true
					if b.cfg.CheckCRC && dl2 > 0 {
						rs.record(off+dataLen, next.c.Payload[:dl2])
					}
				}
				b.cells.Put(next.c)
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
		b.reasmPool.Put(rs)
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
	b.reasmPool.Put(rs)
}

// txProc is the transmit on-board processor: it gathers descriptor
// chains from the transmit rings (kernel channel plus ADCs, by
// priority), runs the segmentation algorithm, and feeds the DMA
// controller one cell at a time — interleaving cells of PDUs from
// different channels at cell granularity, the fine-grained multiplexing
// of §2.5.1.
func (b *Board) txProc(p *sim.Proc) {
	for {
		ch := b.pickTxChannel(p)
		if ch == nil {
			b.txWork.Wait(p)
			p.Sleep(pollDelay)
			continue
		}
		b.emitCell(p, ch)
	}
}

// pickTxChannel returns the open channel with ready work of the highest
// priority, gathering descriptor chains as a side effect. Ties rotate
// round-robin so equal-priority channels interleave cell by cell — the
// fine-grained multiplexing of §2.5.1 ("the microprocessor could
// transmit one cell from each in turn").
func (b *Board) pickTxChannel(p *sim.Proc) *Channel {
	if b.cfg.TxDRRQuantum > 0 {
		return b.pickTxChannelDRR(p)
	}
	var best *Channel
	bestRank := 0
	for i := 0; i < NumChannels; i++ {
		idx := (b.txRR + 1 + i) % NumChannels
		ch := b.chans[idx]
		if ch == nil || !ch.open {
			continue
		}
		if !ch.tx.active && !b.gather(p, ch) {
			continue
		}
		if best == nil || ch.Priority > bestRank {
			best = ch
			bestRank = ch.Priority
		}
	}
	if best != nil {
		b.txRR = best.Index
	}
	return best
}

// pickTxChannelDRR is the TxDRRQuantum arbiter: strict priority still
// wins between priority classes, but within the top class channels are
// served deficit-round-robin on payload bytes — each earns a quantum of
// byte credit per rotation and transmits while its deficit lasts, so a
// tenant shipping short PDUs is charged for the bytes it sends, not the
// cell slots it occupies. Deterministic: index order, one cursor.
func (b *Board) pickTxChannelDRR(p *sim.Proc) *Channel {
	// Pass 1: find ready channels (gathering descriptor chains as a
	// side effect) and the top priority among them. An idle channel's
	// deficit resets — DRR credit exists only while backlogged.
	bestPrio := 0
	any := false
	for i := 0; i < NumChannels; i++ {
		ch := b.chans[i]
		if ch == nil || !ch.open {
			continue
		}
		if !ch.tx.active && !b.gather(p, ch) {
			ch.txDeficit = 0
			continue
		}
		if !any || ch.Priority > bestPrio {
			bestPrio = ch.Priority
			any = true
		}
	}
	if !any {
		return nil
	}
	// Pass 2: from the cursor (inclusive, so the current channel keeps
	// the link while its deficit lasts), pick the first top-priority
	// ready channel with credit left.
	for k := 0; k < NumChannels; k++ {
		idx := (b.txRR + k) % NumChannels
		ch := b.chans[idx]
		if ch == nil || !ch.open || !ch.tx.active || ch.Priority != bestPrio {
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
		if ch != nil && ch.open && ch.tx.active && ch.Priority == bestPrio {
			ch.txDeficit += b.cfg.TxDRRQuantum
		}
	}
	for k := 1; k <= NumChannels; k++ {
		idx := (b.txRR + k) % NumChannels
		ch := b.chans[idx]
		if ch != nil && ch.open && ch.tx.active && ch.Priority == bestPrio {
			b.txRR = idx
			return ch
		}
	}
	return nil // unreachable: any == true
}

// gather peeks descriptors from ch's transmit ring until a full PDU
// (through its EOP descriptor) is visible, then activates the stream.
// It reports whether a PDU is ready. Descriptors are not consumed here;
// the tail advances only after the last cell's DMA (§2.1.2).
func (b *Board) gather(p *sim.Proc, ch *Channel) bool {
	st := &ch.tx
	for !st.eop {
		d, ok := readerPeek(p, ch.TxRing, ch.peekAhead+len(st.descs))
		if !ok {
			b.checkNotifyFlag(p, ch)
			return false
		}
		if !b.authorized(ch, d) {
			st.poison = true
			b.violation(ch, d.VCI, b.trkTx)
		}
		st.descs = append(st.descs, d)
		if d.Flags&queue.FlagEOP != 0 {
			st.eop = true
		}
	}
	if st.poison {
		b.txSubmit(p, b.discardCmd(ch))
		return b.gather(p, ch)
	}
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
	return true
}

// checkNotifyFlag implements the transmit-side interrupt protocol of
// §2.1.2: the host, having found the ring full, sets the notify flag;
// the board asserts an interrupt once the ring has drained to half.
func (b *Board) checkNotifyFlag(p *sim.Proc, ch *Channel) {
	if readerNotify(p, ch.TxRing, ch.NotifyFlagOff()) {
		b.txIRQ(ch)
	}
}

// emitCell produces the stream's next cell: it computes the data
// extents, framing bits and trailer parameters, and queues one command
// for the DMA controller.
func (b *Board) emitCell(p *sim.Proc, ch *Channel) {
	st := &ch.tx
	p.Sleep(b.cfg.CellOverheadTx)

	cmd := sim.TakeNew(&b.txCmdPool)
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
		if st.bytePos == st.pduLen {
			// Data exhausted: the trailer goes in its own (partial) cell.
			st.cellIdx++
			b.chargeDRR(ch, 0) // the trailer cell occupies a slot too
			b.txSubmit(p, cmd)
			p.Sleep(b.cfg.CellOverheadTx)
			trailerCmd := sim.TakeNew(&b.txCmdPool)
			trailerCmd.ch, trailerCmd.vci = ch, st.vci
			trailerCmd.trailer, trailerCmd.eom, trailerCmd.last = true, true, true
			trailerCmd.linkIdx = st.cellIdx % b.cfg.StripeWidth
			if b.cfg.Strategy.UsesSeqNumbers() {
				trailerCmd.hasSeq = true
				trailerCmd.seq = uint32(st.cellIdx)
			}
			trailerCmd.advance = len(st.descs)
			b.finishPDU(ch)
			b.txSubmit(p, trailerCmd)
			return
		}
		st.cellIdx++
		b.txSubmit(p, cmd)
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
	b.txSubmit(p, cmd)
}

func (b *Board) txSubmit(p *sim.Proc, cmd *txCmd) {
	b.txCmds.Send(p, cmd)
	if b.mTxFIFOHW != nil {
		b.mTxFIFOHW.Observe(int64(b.txCmds.Len()))
	}
}
