package board

import (
	"time"

	"repro/internal/atm"
	"repro/internal/sim"
)

// FictSource supplies the fictitious-PDU generator's traffic one message
// at a time: it returns the PDUs of message i of the sequence (the IP
// fragments of one UDP message, say). The generator segments them
// before its next call, so they need stay valid only until then, and a
// source may build every message into the same storage.
type FictSource func(i int) [][]byte

// fictReq controls the fictitious-PDU generator.
type fictReq struct {
	stop     bool
	vci      atm.VCI
	msgs     int
	src      FictSource
	interval time.Duration
	count    int // 0 = until stopped
}

// DefaultFictInterval paces fictitious cells at the aggregate payload
// rate of the striped 622 Mbps channel, so the receive-side isolation
// experiment is bounded by the link speed exactly as the paper's was.
const DefaultFictInterval = 684 * time.Nanosecond

// StartFictitious programs the receive processor's generator mode used
// for the Figure 2/3 experiments: "the receiver processor of the OSIRIS
// board was programmed to generate fictitious PDUs as fast as the
// receiving host could absorb them" (§4). The sequence is msgs messages
// pulled from src in order; each message's PDUs are segmented and fed
// through the normal reassembly/DMA path, one cell per interval (0
// means DefaultFictInterval; a negative interval runs unpaced). count
// bounds the number of sequence repetitions (0 = until StopFictitious).
//
// The VCI must already be bound to a channel.
func (b *Board) StartFictitious(vci atm.VCI, msgs int, src FictSource, interval time.Duration, count int) {
	req := fictReq{vci: vci, msgs: msgs, src: src, interval: interval, count: count}
	if !b.fireCtl.TrySend(req) {
		panic("board: fictitious generator busy")
	}
}

// StopFictitious halts the generator after the sequence in progress.
func (b *Board) StopFictitious() {
	b.fireCtl.TrySend(fictReq{stop: true})
}

// fictProc runs the generator. It shares the receive FIFO with the link
// path, so generated cells exercise exactly the reassembly, DMA, and
// interrupt machinery that real traffic does. Each PDU is segmented
// into the same cell storage: the FIFO holds cells by value.
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
