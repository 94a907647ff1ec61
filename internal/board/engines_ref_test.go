package board

import (
	"hash/crc32"
	"time"

	"repro/internal/atm"
	"repro/internal/dpm"
	"repro/internal/hostsim"
	"repro/internal/queue"
	"repro/internal/sim"
)

// The proc forms of the DMA controllers and the fictitious-PDU
// generator, as they ran before they became continuations. They are the
// reference FuzzDMAEnginesMatchProcs checks the continuations against:
// the same board, the same traffic, every event at the same instant.

// newProcBoard builds a board whose DMA controllers and generator run
// as the reference procs, started in the slots New starts the
// continuations in.
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
			cmd.ch.TxRing.ReaderAdvance(p, dpm.Board, cmd.advance)
			b.procCheckNotifyFlag(p, cmd.ch)
		}
		b.putTxCmd(cmd)
	}
}

func (b *Board) procCheckNotifyFlag(p *sim.Proc, ch *Channel) {
	if b.DPM.ReadWord(p, dpm.Board, ch.NotifyFlagOff()) == 0 {
		return
	}
	if ch.TxRing.ReaderLen(p, dpm.Board) <= ch.TxRing.Slots()/2 {
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
						b.rxFIFO.Send(p, rxCell{c: cells[i], link: i % b.cfg.StripeWidth})
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
