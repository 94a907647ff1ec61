package board

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/bus"
	"repro/internal/dpm"
	"repro/internal/hostsim"
	"repro/internal/queue"
	"repro/internal/sim"
)

// dmaResult is everything a dmaRig run lets a test observe.
type dmaResult struct {
	Trace  []string
	Events uint64
	Now    sim.Time
	Board  Stats
	Bus    bus.Stats
	DPM    dpm.Stats
	Links  atm.LinkStats
}

// byteStream hands out the fuzz input one byte at a time, then zeros.
type byteStream []byte

func (s *byteStream) next() int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b)
}

// Loopback and generator VCIs, both bound to the kernel channel.
const (
	rigLoopVCI atm.VCI = 7
	rigFictVCI atm.VCI = 9
)

// dmaRig runs one board workload decoded from data, with the DMA
// controllers and the generator as continuations (New) or, with procs
// set, as the reference procs. The board transmits random PDUs from a
// host proc into its own receive side over four links; the generator
// adds paced or unpaced PDUs on a second VCI; a host proc reaps the
// receive ring slowly and recycles buffers. The first bytes pick the
// conditions: a serialized bus with a CPUOccupy proc contending for
// it, a small receive ring with or without RecvDropGrace, slow links
// that push back on the transmit controller, and a small receive FIFO.
func dmaRig(data []byte, procs bool) dmaResult {
	in := byteStream(data)
	flags := in.next()
	prof := hostsim.DEC3000_600()
	if flags&1 != 0 {
		prof = hostsim.DEC5000_200() // serialized TURBOchannel
	}
	cfg := Config{
		RecvRingSlots: 3 + in.next()%6,
		TxRingSlots:   4 + in.next()%8,
		RxFIFOCells:   4 + in.next()%12,
		TxPolicy:      TxDMAPolicy(in.next() % 3),
	}
	if flags&2 != 0 {
		cfg.RxDMA = DoubleCell
	}
	if flags&4 != 0 {
		cfg.RecvDropGrace = time.Duration(1+in.next()%8) * time.Microsecond
	}
	if flags&8 != 0 {
		cfg.InterruptPerPDU = true
	}
	if flags&16 != 0 {
		cfg.Strategy = SeqNum
	}
	linkRate := int64(atm.DefaultLinkRate)
	if flags&32 != 0 {
		linkRate /= int64(2 + in.next()%6) // backpressure on the transmit controller
	}

	e := sim.NewEngine(7)
	defer e.Shutdown()
	h := hostsim.New(e, prof, 2048)
	var b *Board
	if procs {
		b = newProcBoard(e, h, cfg)
	} else {
		b = New(e, h, cfg)
	}
	var res dmaResult
	e.SetRecorder(func(ev sim.TraceEvent) {
		res.Trace = append(res.Trace, fmt.Sprintf("%d %c %s %s %d %d", ev.At, ev.Ph, ev.Comp, ev.Name, ev.Arg, ev.Dur))
	})
	g := atm.NewStripeGroup(e, b.cfg.StripeWidth, atm.LinkConfig{RateBps: linkRate})
	b.AttachTxLinks(g.Links())
	b.AttachRxLinks(g)
	b.BindVCI(rigLoopVCI, 0)
	b.BindVCI(rigFictVCI, 0)
	ch := b.KernelChannel()
	alloc := func(size int) queue.Desc {
		frames, err := h.Mem.AllocContiguous((size + h.Mem.PageSize() - 1) / h.Mem.PageSize())
		if err != nil {
			panic(err)
		}
		return queue.Desc{Addr: h.Mem.FrameAddr(frames[0]), Len: uint32(size)}
	}
	const horizon = 2 * time.Millisecond
	// Interrupt service instants are part of what is compared.
	for _, line := range []int{RxIRQBase, TxIRQBase, VioIRQBase} {
		line := line
		h.Int.Handle(line, func(p *sim.Proc) {
			res.Trace = append(res.Trace, fmt.Sprintf("%d irq %d", p.Now(), line))
		})
	}

	// Transmit host: random PDUs in 1–3 buffers; on a full ring it sets
	// the notify flag, as the driver does, and retries.
	nPDUs := 1 + in.next()%12
	pdus := make([][]queue.Desc, nPDUs)
	gaps := make([]time.Duration, nPDUs)
	for i := range pdus {
		parts := 1 + in.next()%3
		for j := 0; j < parts; j++ {
			d := alloc(1 + in.next()*8)
			d.VCI = rigLoopVCI
			h.Mem.Write(d.Addr, pattern(int(d.Len), byte(i)))
			if j == parts-1 {
				d.Flags = queue.FlagEOP
			}
			pdus[i] = append(pdus[i], d)
		}
		gaps[i] = time.Duration(in.next()%8) * time.Microsecond
	}
	e.Go("txhost", func(p *sim.Proc) {
		for i, descs := range pdus {
			for _, d := range descs {
				for !ch.TxRing.TryPush(p, dpm.Host, d) {
					b.DPM.WriteWord(p, dpm.Host, ch.NotifyFlagOff(), 1)
					p.Sleep(5 * time.Microsecond)
					b.KickTx()
				}
			}
			b.KickTx()
			p.Sleep(gaps[i])
		}
	})

	// Receive host: stock the free ring, then reap slowly, recycling
	// each buffer at its full size.
	size := map[uint64]uint32{}
	var free []queue.Desc
	for i := 0; i < 24; i++ {
		d := alloc(256 << (i % 3))
		size[uint64(d.Addr)] = d.Len
		free = append(free, d)
	}
	reap := time.Duration(1+in.next()%24) * time.Microsecond
	e.Go("rxhost", func(p *sim.Proc) {
		for _, d := range free {
			ch.FreeRing.TryPush(p, dpm.Host, d)
		}
		b.KickFree()
		for p.Now() < sim.Time(horizon) {
			p.Sleep(reap)
			d, ok := ch.RecvRing.TryPop(p, dpm.Host)
			if !ok {
				continue
			}
			res.Trace = append(res.Trace, fmt.Sprintf("%d pop %#x %d %d %d", p.Now(), d.Addr, d.Len, d.VCI, d.Flags))
			h.Compute(p, reap/2) // the host's work per buffer, contending with interrupt service
			if n, ok := size[uint64(d.Addr)]; ok && d.Flags&queue.FlagErr == 0 {
				ch.FreeRing.TryPush(p, dpm.Host, queue.Desc{Addr: d.Addr, Len: n})
				b.KickFree()
			}
		}
	})

	// CPU activity occupying the memory path (the TURBOchannel itself
	// when the bus is serialized).
	cpu := time.Duration(in.next()%5) * 200 * time.Nanosecond
	if cpu > 0 {
		e.Go("cpu", func(p *sim.Proc) {
			for p.Now() < sim.Time(horizon) {
				h.Bus.CPUOccupy(p, cpu)
				p.Sleep(cpu / 2)
			}
		})
	}

	// The generator: paced, at the default rate, or unpaced into a
	// small FIFO.
	if msgs := in.next() % 4; msgs > 0 {
		var interval time.Duration
		switch k := in.next() % 4; k {
		case 0:
			interval = -1
		case 1:
			interval = 0 // DefaultFictInterval
		default:
			interval = time.Duration(k*150) * time.Nanosecond
		}
		lens := make([]int, msgs)
		for i := range lens {
			lens[i] = 1 + in.next()*6
		}
		buf := make([]byte, 0, 2048)
		src := func(i int) [][]byte { return [][]byte{append(buf[:0], pattern(lens[i], byte(i))...)} }
		count := 1 + in.next()%3
		start := time.Duration(in.next()%50) * time.Microsecond
		e.At(sim.Time(start), func() { b.StartFictitious(rigFictVCI, msgs, src, interval, count) })
	}

	e.RunUntil(sim.Time(horizon))
	res.Events, res.Now = e.Events(), e.Now()
	res.Board, res.Bus, res.DPM, res.Links = b.Stats(), h.Bus.Stats(), b.DPM.Stats(), g.Stats()
	return res
}

// rigSpec is a dmaRig input in readable form; bytes encodes it in the
// order dmaRig decodes.
type rigSpec struct {
	flags, recvSlots, txSlots, fifo, policy int
	grace, slow                             int     // read when flags 4, 32 are set
	pdus                                    [][]int // buffer sizes /8, per PDU
	gap, reap, cpu                          int
	fict                                    []int // generator message lengths /6
	interval, count, start                  int
}

func (s rigSpec) bytes() []byte {
	out := []byte{byte(s.flags), byte(s.recvSlots), byte(s.txSlots), byte(s.fifo), byte(s.policy)}
	if s.flags&4 != 0 {
		out = append(out, byte(s.grace))
	}
	if s.flags&32 != 0 {
		out = append(out, byte(s.slow))
	}
	out = append(out, byte(len(s.pdus)-1))
	for _, bufs := range s.pdus {
		out = append(out, byte(len(bufs)-1))
		for _, n := range bufs {
			out = append(out, byte(n))
		}
		out = append(out, byte(s.gap))
	}
	out = append(out, byte(s.reap), byte(s.cpu), byte(len(s.fict)))
	if len(s.fict) > 0 {
		out = append(out, byte(s.interval))
		for _, n := range s.fict {
			out = append(out, byte(n))
		}
		out = append(out, byte(s.count), byte(s.start))
	}
	return out
}

// dmaSeeds are inputs that between them cover each condition the rig
// exists for; TestDMARigCoversConditions checks that they do.
var dmaSeeds = [][]byte{
	// Serialized bus with CPU contention, double-cell DMA, slow reaping
	// of a 3-slot receive ring, no grace: the controller waits.
	rigSpec{flags: 1 | 2, txSlots: 4, fifo: 8, pdus: [][]int{{40, 60}, {30}, {50, 20, 20}, {200}, {90, 60}, {120}}, gap: 1, reap: 20, cpu: 3}.bytes(),
	// The same with RecvDropGrace: descriptors dropped at the ring.
	rigSpec{flags: 1 | 2 | 4, txSlots: 4, fifo: 8, grace: 3, pdus: [][]int{{40, 60}, {30}, {50, 20, 20}, {200}, {90, 60}, {120}}, gap: 1, reap: 20, cpu: 3}.bytes(),
	// Slow links pushing back on the transmit controller, FixedCell
	// segmentation, per-PDU interrupts, the notify flag on a small
	// transmit ring.
	rigSpec{flags: 8 | 32, recvSlots: 3, fifo: 8, policy: 1, slow: 4, pdus: [][]int{{250, 250, 250}, {250, 250, 200}, {100, 200, 250}, {80, 90}, {250}}, reap: 2, cpu: 0}.bytes(),
	// The unpaced generator overrunning a 4-slot receive FIFO while
	// looped-back cells arrive: FIFO drops.
	rigSpec{flags: 1 | 16, recvSlots: 5, txSlots: 4, pdus: [][]int{{30, 40}, {50}, {200}}, reap: 1, cpu: 2, fict: []int{250, 200, 120}, interval: 0, count: 2, start: 3}.bytes(),
	// The generator paced at 300 ns and at its default rate into a
	// slowly reaped ring, boundary-stop splits under SeqNum framing.
	rigSpec{flags: 2 | 16, recvSlots: 2, txSlots: 6, fifo: 10, pdus: [][]int{{100, 120}, {90}}, gap: 3, reap: 6, cpu: 1, fict: []int{80, 160, 240}, interval: 2, count: 3, start: 1}.bytes(),
	rigSpec{flags: 4, recvSlots: 1, fifo: 2, grace: 1, pdus: [][]int{{60}}, reap: 12, fict: []int{200, 100}, interval: 1, count: 1, start: 0}.bytes(),
}

// FuzzDMAEnginesMatchProcs is the oracle for the continuation-driven
// DMA controllers and generator: on any workload the rig can build,
// every traced event, every host-side receive, the engine's event
// count and clock, and the board, bus, dual-port memory and link
// counters are exactly those of the reference procs.
func FuzzDMAEnginesMatchProcs(f *testing.F) {
	for _, s := range dmaSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			return
		}
		got, want := dmaRig(data, false), dmaRig(data, true)
		if reflect.DeepEqual(got, want) {
			return
		}
		for i := 0; i < len(got.Trace) && i < len(want.Trace); i++ {
			if got.Trace[i] != want.Trace[i] {
				t.Fatalf("trace diverges at %d: continuation %q, procs %q", i, got.Trace[i], want.Trace[i])
			}
		}
		t.Fatalf("continuations:\n%+v\nprocs:\n%+v", got, want)
	})
}

// The seeds reach every condition the rig is for: both forms see real
// work, the ring and FIFO overflow, and the generator and the links
// carry cells.
func TestDMARigCoversConditions(t *testing.T) {
	var ringDrops, fifoDrops, fict, combined, tx int64
	for _, s := range dmaSeeds {
		r := dmaRig(s, false)
		ringDrops += r.Board.RecvRingDropped
		fifoDrops += r.Board.CellsDroppedFIFO
		combined += r.Board.CombinedDMAs
		tx += r.Board.CellsTx
		fict += r.Board.CellsRx - r.Links.Delivered
	}
	for name, n := range map[string]int64{"ring drops": ringDrops, "FIFO drops": fifoDrops, "generated cells": fict, "double-cell DMAs": combined, "cells sent": tx} {
		if n <= 0 {
			t.Errorf("no seed produces %s", name)
		}
	}
}
