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

// fictGen is the generator, a firmware loop that paces cells: it
// shares the receive FIFO with the link path, so generated cells
// exercise exactly the reassembly, DMA, and interrupt machinery that
// real traffic does. Each PDU is segmented into the same cell storage,
// and each cell copied into a record from the cell store, which the
// generator holds while it waits for room in the FIFO. It runs as a
// continuation: run is its one event callback, looping until it must
// wait for a request, for room in the FIFO, or for the next cell slot.
type fictGen struct {
	b        *Board
	k        sim.Cont // (fictStep, the generator)
	pc       uint8
	req      fictReq
	interval time.Duration
	sent     int      // sequence repetitions finished
	m        int      // message of the sequence
	pdus     [][]byte // message m's PDUs
	pi       int      // PDU of pdus
	cells    []atm.Cell
	ci       int       // cell of cells
	rec      *atm.Cell // cell ci's record, until the FIFO takes it
	pace     sim.Hold
}

// fictGen states.
const (
	fictIdle uint8 = iota // waiting for a request
	fictRep               // begin a repetition of the sequence
	fictMsg               // fetch message m
	fictPDU               // segment PDU pi
	fictCell              // send cell ci
	fictPace              // wait out the interval after a cell
)

func (g *fictGen) init(b *Board) {
	g.b = b
	g.k = sim.Cont{Fn: fictStep, Arg: g}
}

// fictStep is the generator's event callback. Once the engine is shut
// down it does nothing, as a killed process would.
func fictStep(a any) {
	g := a.(*fictGen)
	if g.b.eng.Halted() {
		return
	}
	g.run()
}

func (g *fictGen) run() {
	b := g.b
	for {
		switch g.pc {
		case fictIdle:
			req, ok := b.fireCtl.RecvCont(g.k)
			if !ok {
				return
			}
			if req.stop {
				continue
			}
			g.req, g.interval, g.sent = req, req.interval, 0
			if g.interval == 0 {
				g.interval = DefaultFictInterval
			}
			g.pc = fictRep
		case fictRep:
			if g.req.count != 0 && g.sent >= g.req.count {
				g.stop()
				continue
			}
			if r, ok := b.fireCtl.TryRecv(); ok && r.stop {
				g.stop()
				continue
			}
			g.m, g.pc = 0, fictMsg
		case fictMsg:
			if g.m == g.req.msgs {
				g.sent++
				g.pc = fictRep
				continue
			}
			g.pdus, g.pi, g.pc = g.req.src(g.m), 0, fictPDU
		case fictPDU:
			if g.pi == len(g.pdus) {
				g.m++
				g.pc = fictMsg
				continue
			}
			g.cells = atm.SegmentInto(g.cells, g.req.vci, g.pdus[g.pi], b.cfg.StripeWidth, b.cfg.Strategy.UsesSeqNumbers())
			g.ci, g.pc = 0, fictCell
		case fictCell:
			if g.ci == len(g.cells) {
				g.pi++
				g.pc = fictPDU
				continue
			}
			if g.rec == nil {
				g.rec = sim.TakeNew(b.cells)
				*g.rec = g.cells[g.ci]
			}
			if !b.rxFIFO.SendCont(rxCell{c: g.rec, link: int32(g.ci % b.cfg.StripeWidth)}, g.k) {
				return
			}
			g.rec = nil
			if b.mRxFIFOHW != nil {
				b.mRxFIFOHW.Observe(int64(b.rxFIFO.Len()))
			}
			if b.eng.Recording() {
				b.eng.Emit(sim.TraceEvent{At: b.eng.Now(), Ph: 'C', Comp: b.trkRx, Cat: sim.CatQueue, Name: "rx-fifo", Arg: int64(b.rxFIFO.Len())})
			}
			g.ci++
			if g.interval > 0 {
				g.pace = b.eng.Delay(g.interval)
				g.pc = fictPace
			}
		case fictPace:
			if !g.pace.Step(g.k) {
				return
			}
			g.pc = fictCell
		}
	}
}

// stop ends the request: the generator waits for the next one.
func (g *fictGen) stop() {
	g.req, g.pdus = fictReq{}, nil
	g.pc = fictIdle
}
