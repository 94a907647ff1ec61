package board

import (
	"hash/crc32"

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
	advance int // descriptors to consume after this cell (0 unless PDU end)
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

// gather peeks descriptors from ch's transmit ring until a full PDU
// (through its EOP descriptor) is visible, then activates the stream.
// It reports whether a PDU is ready. Descriptors are not consumed here;
// the tail advances only after the last cell's DMA (§2.1.2).
func (b *Board) gather(p *sim.Proc, ch *Channel) bool {
	st := &ch.tx
	for !st.eop {
		d, ok := ch.TxRing.ReaderPeek(p, dpm.Board, ch.peekAhead+len(st.descs))
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
		// Discard the whole offending PDU: consume its descriptors
		// without transmitting anything.
		n := len(st.descs)
		ch.TxRing.ReaderAdvance(p, dpm.Board, ch.peekAhead+n)
		ch.peekAhead = 0
		ch.tx = txStream{descs: st.descs[:0]} // keep the descriptor scratch
		b.checkNotifyFlag(p, ch)
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
	if b.DPM.ReadWord(p, dpm.Board, ch.NotifyFlagOff()) == 0 {
		return
	}
	if ch.TxRing.ReaderLen(p, dpm.Board) <= ch.TxRing.Slots()/2 {
		b.DPM.WriteWord(p, dpm.Board, ch.NotifyFlagOff(), 0)
		b.stats.TxIRQs++
		b.irq(TxIRQBase + ch.Index)
	}
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

// emitCell produces the stream's next cell: it computes the data
// extents, framing bits and trailer parameters, and queues one command
// for the DMA controller.
func (b *Board) emitCell(p *sim.Proc, ch *Channel) {
	st := &ch.tx
	p.Sleep(b.cfg.CellOverheadTx)

	cmd := txCmd{ch: ch, vci: st.vci}
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
		segs, taken := st.take(want, true, b.getSegs())
		st.bytePos += taken
		cmd.segs = segs
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
			trailerCmd := txCmd{
				ch: ch, vci: st.vci, trailer: true, eom: true, last: true,
				linkIdx: st.cellIdx % b.cfg.StripeWidth,
			}
			if cmd.hasSeq {
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
	segs, taken := st.take(want, false, b.getSegs())
	if taken != want {
		panic("board: descriptor chain shorter than PDU length")
	}
	if len(segs) > 1 {
		b.stats.SplitCellsTx++
	}
	cmd.segs = segs
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

// finishPDU retires the stream state; the descriptor tail advance is
// carried by the final cell's DMA command.
func (b *Board) finishPDU(ch *Channel) {
	ch.peekAhead += len(ch.tx.descs)
	ch.tx = txStream{descs: ch.tx.descs[:0]} // keep the descriptor scratch
	b.stats.PDUsTx++
}

func (b *Board) txSubmit(p *sim.Proc, cmd txCmd) {
	b.txCmds.Send(p, cmd)
	if b.mTxFIFOHW != nil {
		b.mTxFIFOHW.Observe(int64(b.txCmds.Len()))
	}
}

// txDMAEngine is the transmit DMA controller plus cell generator: it
// gathers each cell's bytes from host memory (one bus transaction per
// segment — the §2.5.2 page-boundary-stop behaviour), maintains the
// per-channel AAL5 CRC/length accumulators, and hands finished cells to
// the physical links.
func (b *Board) txDMAEngine(p *sim.Proc) {
	type aal5 struct {
		crc uint32
		len uint32
	}
	state := make(map[int]*aal5)
	table := crc32.MakeTable(crc32.IEEE)
	for {
		cmd := b.txCmds.Recv(p)
		acc := state[cmd.ch.Index]
		if acc == nil {
			acc = &aal5{}
			state[cmd.ch.Index] = acc
		}
		// Stage the cell in a pooled flyweight buffer rather than a
		// stack array: the gather below crosses enough call boundaries
		// that escape analysis heap-allocates a local, one per cell.
		hnd, payload := b.txPool.Get()
		pos := 0
		for _, seg := range cmd.segs {
			b.host.Bus.DMARead(p, seg.Len)
			b.host.Mem.ReadInto(seg.Addr, payload[pos:pos+seg.Len])
			pos += seg.Len
		}
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
		cell := atm.Cell{
			VCI:  cmd.vci,
			EOM:  cmd.eom,
			Last: cmd.last,
			Len:  cellLen,
		}
		if cmd.hasSeq {
			cell.Seq = cmd.seq
		}
		copy(cell.Payload[:], payload[:cellLen])
		b.stats.CellsTx++
		if b.eng.Recording() {
			b.eng.Emit(sim.TraceEvent{At: b.eng.Now(), Ph: 'i', Comp: b.trkTx, Cat: sim.CatCell, Name: "cell-tx", Arg: int64(cell.VCI)})
		}
		b.deliverCell(p, cell, cmd.linkIdx)
		b.txPool.Put(hnd) // free on delivery
		b.putSegs(cmd.segs)
		if cmd.advance > 0 {
			if b.cfg.InterruptPerPDU {
				// Traditional transmit-complete interrupt (§2.1.2's
				// "traditionally signalled to the host using an
				// interrupt") — the ablation baseline.
				b.stats.TxIRQs++
				b.irq(TxIRQBase + cmd.ch.Index)
			}
			// peekAhead and the ring's reader cursor must move together
			// with no scheduling point in between, or a concurrent gather
			// by the transmit processor would compute a stale peek index;
			// ReaderAdvance mutates its cursor before its (yielding)
			// dual-port store, so decrementing first keeps the pair atomic.
			cmd.ch.peekAhead -= cmd.advance
			cmd.ch.TxRing.ReaderAdvance(p, dpm.Board, cmd.advance)
			b.checkNotifyFlag(p, cmd.ch)
		}
	}
}

// deliverCell hands a finished cell to the attached link, or to the test
// sink when no links are attached.
func (b *Board) deliverCell(p *sim.Proc, cell atm.Cell, linkIdx int) {
	if b.outLinks != nil {
		b.outLinks[linkIdx].Send(p, cell)
		return
	}
	if b.txSink != nil {
		b.txSink(cell, linkIdx)
	}
}
