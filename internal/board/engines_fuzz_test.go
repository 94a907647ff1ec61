package board

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/bus"
	"repro/internal/dpm"
	"repro/internal/fault"
	"repro/internal/hostsim"
	"repro/internal/mem"
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
	// inPlace counts the channels the continuation form's transmit scan
	// probed in place; the reference procs probe none that way, so the
	// oracle leaves it out.
	inPlace int64
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

// Loopback and generator VCIs, all bound to the kernel channel:
// channel 1, when the rig opens it, transmits on rigLoop1VCI.
const (
	rigLoopVCI  atm.VCI = 7
	rigLoop1VCI atm.VCI = 8
	rigFictVCI  atm.VCI = 9
)

// rigOpts bits: the firmware options of the rig's extension section.
const (
	optCheckCRC  = 1 << iota // CheckCRC
	optRejectDup             // RejectDuplicates
	optResync                // ReasmResync
	optQuota                 // RxFIFOQuota (a byte follows)
	optDRR                   // TxDRRQuantum (a byte follows)
	optChannel1              // a second, frame-restricted transmit channel
	optFaults                // loss, corruption, duplication and skew on the links (four bytes follow)
	optArrival               // ArrivalOrder reassembly
)

// dmaInput is a decoded dmaRig input.
type dmaInput struct {
	cfg        Config
	serialized bool // a DEC 5000/200 host, whose TURBOchannel is serialized
	linkRate   int64
	tx         [2]rigTx // the two transmit channels' PDUs
	reap       time.Duration
	cpu        time.Duration
	fict       []int // generator message lengths
	interval   time.Duration
	count      int
	start      time.Duration
	ch1        bool
	prio1      int
	faults     *fault.Config
	skew       atm.SkewModel
	idle       []rigIdle // channels 2, 3, ... open, with nothing to send
}

// rigIdle is an extra transmit channel that never queues a descriptor:
// it opens at open, and with flag set the host sets its notify flag
// then and again later, as a driver that found the ring full would.
type rigIdle struct {
	open time.Duration
	prio int
	flag bool
}

// rigTx is one transmit channel's traffic: PDUs of buffer sizes, the
// gap after each, and (channel 1) whether it names a frame the channel
// may not use.
type rigTx struct {
	pdus [][]int
	gaps []time.Duration
	bad  []bool
}

// decodeTx reads one channel's PDUs; bad says whether each carries an
// authorization byte.
func decodeTx(in *byteStream, bad bool) rigTx {
	var t rigTx
	n := 1 + in.next()%12
	for i := 0; i < n; i++ {
		parts := 1 + in.next()%3
		sizes := make([]int, parts)
		for j := range sizes {
			sizes[j] = 1 + in.next()*8
		}
		t.pdus = append(t.pdus, sizes)
		t.bad = append(t.bad, bad && in.next()%4 == 0)
		t.gaps = append(t.gaps, time.Duration(in.next()%8)*time.Microsecond)
	}
	return t
}

// decodeRig decodes a fuzz input. The first bytes pick the conditions:
// a serialized bus with a CPUOccupy proc contending for it, a small
// receive ring with or without RecvDropGrace, slow links that push
// back on the transmit controller, and a small receive FIFO. An
// optional extension section at the end (rigOpts) turns on the
// reassembly checks, the receive FIFO quota, DRR transmit arbitration
// across a second channel that also issues unauthorized PDUs, and
// faulty links; after it, a count of up to 14 idle transmit channels
// and a byte for each (decodeIdle). Inputs without these sections
// decode as they did before they existed.
func decodeRig(data []byte) dmaInput {
	in := byteStream(data)
	var r dmaInput
	flags := in.next()
	r.cfg = Config{
		RecvRingSlots: 3 + in.next()%6,
		TxRingSlots:   4 + in.next()%8,
		RxFIFOCells:   4 + in.next()%12,
		TxPolicy:      TxDMAPolicy(in.next() % 3),
	}
	r.serialized = flags&1 != 0
	if flags&2 != 0 {
		r.cfg.RxDMA = DoubleCell
	}
	if flags&4 != 0 {
		r.cfg.RecvDropGrace = time.Duration(1+in.next()%8) * time.Microsecond
	}
	if flags&8 != 0 {
		r.cfg.InterruptPerPDU = true
	}
	if flags&16 != 0 {
		r.cfg.Strategy = SeqNum
	}
	r.linkRate = int64(atm.DefaultLinkRate)
	if flags&32 != 0 {
		r.linkRate /= int64(2 + in.next()%6) // backpressure on the transmit controller
	}
	r.tx[0] = decodeTx(&in, false)
	r.reap = time.Duration(1+in.next()%24) * time.Microsecond
	r.cpu = time.Duration(in.next()%5) * 200 * time.Nanosecond
	if msgs := in.next() % 4; msgs > 0 {
		switch k := in.next() % 4; k {
		case 0:
			r.interval = -1
		case 1:
			r.interval = 0 // DefaultFictInterval
		default:
			r.interval = time.Duration(k*150) * time.Nanosecond
		}
		for i := 0; i < msgs; i++ {
			r.fict = append(r.fict, 1+in.next()*6)
		}
		r.count = 1 + in.next()%3
		r.start = time.Duration(in.next()%50) * time.Microsecond
	}

	opts := in.next()
	r.cfg.CheckCRC = opts&optCheckCRC != 0
	r.cfg.RejectDuplicates = opts&optRejectDup != 0
	r.cfg.ReasmResync = opts&optResync != 0
	if opts&optArrival != 0 {
		r.cfg.Strategy = ArrivalOrder
	}
	if opts&optQuota != 0 {
		r.cfg.RxFIFOQuota = 1 + in.next()%6
	}
	if opts&optDRR != 0 {
		r.cfg.TxDRRQuantum = atm.CellPayload * (1 + in.next()%4)
	}
	if opts&optChannel1 != 0 {
		r.ch1 = true
		r.prio1 = in.next() % 2
		r.tx[1] = decodeTx(&in, true)
	}
	if opts&optFaults != 0 {
		r.faults = &fault.Config{
			Loss:        fault.Bernoulli{P: float64(in.next()%8) * 0.02},
			CorruptProb: float64(in.next()%8) * 0.02,
			DupProb:     float64(in.next()%8) * 0.02,
		}
		r.skew = atm.QueueingSkew{Max: time.Duration(in.next()%8) * time.Microsecond}
	}
	for n := in.next() % (NumChannels - 1); len(r.idle) < n; {
		r.idle = append(r.idle, decodeIdle(in.next()))
	}
	return r
}

// decodeIdle decodes an idle channel's byte: bit 0 sets its notify
// flag, bit 1 its priority, and the rest its opening time in steps of
// 5 µs.
func decodeIdle(b int) rigIdle {
	return rigIdle{open: time.Duration(b>>2) * 5 * time.Microsecond, prio: b >> 1 & 1, flag: b&1 != 0}
}

// dmaRig runs one board workload decoded from data, with the board's
// processors, DMA controllers and generator as continuations (New) or,
// with procs set, as the reference procs. The board transmits random
// PDUs from one or two host procs into its own receive side over four
// links; the generator adds paced or unpaced PDUs on a third VCI; a
// host proc reaps the receive ring slowly and recycles buffers.
func dmaRig(data []byte, procs bool) dmaResult {
	r := decodeRig(data)
	prof := hostsim.DEC3000_600()
	if r.serialized {
		prof = hostsim.DEC5000_200()
	}

	e := sim.NewEngine(7)
	h := hostsim.New(e, prof, 2048)
	var b *Board
	if procs {
		b = newProcBoard(e, h, r.cfg)
	} else {
		b = New(e, h, r.cfg)
	}
	defer func() {
		e.Shutdown()
		b.Release()
		h.Release()
	}()
	var res dmaResult
	e.SetRecorder(func(ev sim.TraceEvent) {
		res.Trace = append(res.Trace, fmt.Sprintf("%d %c %s %s %d %d", ev.At, ev.Ph, ev.Comp, ev.Name, ev.Arg, ev.Dur))
	})
	g := atm.NewStripeGroup(e, b.cfg.StripeWidth, atm.LinkConfig{RateBps: r.linkRate, Skew: r.skew, Fault: r.faults, FaultSite: "rig"})
	b.AttachTxLinks(g.Links())
	b.AttachRxLinks(g)
	b.BindVCI(rigLoopVCI, 0)
	b.BindVCI(rigLoop1VCI, 0)
	b.BindVCI(rigFictVCI, 0)
	ch := b.KernelChannel()
	alloc := func(size int) (queue.Desc, []mem.Frame) {
		frames, err := h.Mem.AllocContiguous((size + h.Mem.PageSize() - 1) / h.Mem.PageSize())
		if err != nil {
			panic(err)
		}
		return queue.Desc{Addr: h.Mem.FrameAddr(frames[0]), Len: uint32(size)}, frames
	}
	const horizon = 2 * time.Millisecond
	// Interrupt service instants are part of what is compared.
	for _, line := range []int{RxIRQBase, VioIRQBase, VioIRQBase + 1} {
		line := line
		h.Int.Handle(line, 0, func() {
			res.Trace = append(res.Trace, fmt.Sprintf("%d irq %d", e.Now(), line))
		})
	}
	for line := TxIRQBase; line < TxIRQBase+NumChannels; line++ {
		line := line
		h.Int.Handle(line, 0, func() {
			res.Trace = append(res.Trace, fmt.Sprintf("%d irq %d", e.Now(), line))
		})
	}

	// Transmit hosts: random PDUs in 1–3 buffers; on a full ring each
	// sets the notify flag, as the driver does, and retries. Channel 1
	// may use only the frames of its good PDUs.
	txChans := []*Channel{ch}
	if r.ch1 {
		txChans = append(txChans, b.OpenChannel(1, r.prio1, []mem.Frame{}))
	}
	for c, txc := range txChans {
		t, vci := r.tx[c], rigLoopVCI
		if c == 1 {
			vci = rigLoop1VCI
		}
		pdus := make([][]queue.Desc, len(t.pdus))
		for i, sizes := range t.pdus {
			for j, size := range sizes {
				d, frames := alloc(size)
				if c == 1 && !t.bad[i] {
					b.AllowFrames(1, frames)
				}
				d.VCI = vci
				h.Mem.Write(d.Addr, pattern(int(d.Len), byte(i+16*c)))
				if j == len(sizes)-1 {
					d.Flags = queue.FlagEOP
				}
				pdus[i] = append(pdus[i], d)
			}
		}
		txc := txc
		e.Go(fmt.Sprintf("txhost%d", c), func(p *sim.Proc) {
			for i, descs := range pdus {
				for _, d := range descs {
					for !txc.TxRing.TryPush(p, dpm.Host, d) {
						b.DPM.WriteWord(p, dpm.Host, txc.NotifyFlagOff(), 1)
						p.Sleep(5 * time.Microsecond)
						b.KickTx()
					}
				}
				b.KickTx()
				p.Sleep(t.gaps[i])
			}
		})
	}

	// Idle channels: each opens at its time, and its host sets the
	// notify flag then and 40 µs later if it is to.
	for i, c := range r.idle {
		i, c := i, c
		e.At(sim.Time(c.open), func() { b.OpenChannel(2+i, c.prio, []mem.Frame{}) })
		if c.flag {
			e.Go(fmt.Sprintf("flag%d", 2+i), func(p *sim.Proc) {
				p.SleepUntil(sim.Time(c.open))
				for j := 0; j < 2; j++ {
					b.DPM.WriteWord(p, dpm.Host, b.Channel(2+i).NotifyFlagOff(), 1)
					p.Sleep(40 * time.Microsecond)
				}
			})
		}
	}

	// Receive host: stock the free ring, then reap slowly, recycling
	// each buffer at its full size.
	size := map[uint64]uint32{}
	var free []queue.Desc
	for i := 0; i < 24; i++ {
		d, _ := alloc(256 << (i % 3))
		size[uint64(d.Addr)] = d.Len
		free = append(free, d)
	}
	e.Go("rxhost", func(p *sim.Proc) {
		for _, d := range free {
			ch.FreeRing.TryPush(p, dpm.Host, d)
		}
		b.KickFree()
		for p.Now() < sim.Time(horizon) {
			p.Sleep(r.reap)
			d, ok := ch.RecvRing.TryPop(p, dpm.Host)
			if !ok {
				continue
			}
			res.Trace = append(res.Trace, fmt.Sprintf("%d pop %#x %d %d %d", p.Now(), d.Addr, d.Len, d.VCI, d.Flags))
			h.Compute(p, r.reap/2) // the host's work per buffer, contending with interrupt service
			if n, ok := size[uint64(d.Addr)]; ok && d.Flags&queue.FlagErr == 0 {
				ch.FreeRing.TryPush(p, dpm.Host, queue.Desc{Addr: d.Addr, Len: n})
				b.KickFree()
			}
		}
	})

	// CPU activity occupying the memory path (the TURBOchannel itself
	// when the bus is serialized).
	if r.cpu > 0 {
		e.Go("cpu", func(p *sim.Proc) {
			for p.Now() < sim.Time(horizon) {
				h.Bus.CPUOccupy(r.cpu).Do(p)
				p.Sleep(r.cpu / 2)
			}
		})
	}

	// The generator: paced, at the default rate, or unpaced into a
	// small FIFO.
	if len(r.fict) > 0 {
		buf := make([]byte, 0, 2048)
		src := func(i int) [][]byte { return [][]byte{append(buf[:0], pattern(r.fict[i], byte(i))...)} }
		e.At(sim.Time(r.start), func() { b.StartFictitious(rigFictVCI, len(r.fict), src, r.interval, r.count) })
	}

	e.RunUntil(sim.Time(horizon))
	res.Events, res.Now = e.Events(), e.Now()
	res.Board, res.Bus, res.DPM, res.Links = b.Stats(), h.Bus.Stats(), b.DPM.Stats(), g.Stats()
	res.inPlace = b.txCPU.inPlace
	return res
}

// rigSpec is a dmaRig input in readable form; bytes encodes it in the
// order decodeRig decodes.
type rigSpec struct {
	flags, recvSlots, txSlots, fifo, policy int
	grace, slow                             int     // read when flags 4, 32 are set
	pdus                                    [][]int // buffer sizes /8, per PDU
	gap, reap, cpu                          int
	fict                                    []int // generator message lengths /6
	interval, count, start                  int
	// The extension section, written when opts is not 0.
	opts             int
	quota, quantum   int     // read when optQuota, optDRR are set
	prio1            int     // optChannel1: channel 1's priority
	pdus1            [][]int // its PDUs
	bad1             []bool  // which of them name a frame it may not use
	loss, corr, dupl int     // optFaults: probabilities in steps of 2%
	skew             int     // and the skew's bound in µs
	idle             []int   // the idle channels' bytes (decodeIdle)
}

func encodeTx(out []byte, pdus [][]int, bad []bool, gap int) []byte {
	out = append(out, byte(len(pdus)-1))
	for i, bufs := range pdus {
		out = append(out, byte(len(bufs)-1))
		for _, n := range bufs {
			out = append(out, byte(n))
		}
		switch {
		case bad == nil: // channel 0 has no authorization byte
		case bad[i]:
			out = append(out, 0)
		default:
			out = append(out, 1)
		}
		out = append(out, byte(gap))
	}
	return out
}

func (s rigSpec) bytes() []byte {
	out := []byte{byte(s.flags), byte(s.recvSlots), byte(s.txSlots), byte(s.fifo), byte(s.policy)}
	if s.flags&4 != 0 {
		out = append(out, byte(s.grace))
	}
	if s.flags&32 != 0 {
		out = append(out, byte(s.slow))
	}
	out = encodeTx(out, s.pdus, nil, s.gap)
	out = append(out, byte(s.reap), byte(s.cpu), byte(len(s.fict)))
	if len(s.fict) > 0 {
		out = append(out, byte(s.interval))
		for _, n := range s.fict {
			out = append(out, byte(n))
		}
		out = append(out, byte(s.count), byte(s.start))
	}
	if s.opts == 0 && len(s.idle) == 0 {
		return out
	}
	out = append(out, byte(s.opts))
	if s.opts&optQuota != 0 {
		out = append(out, byte(s.quota))
	}
	if s.opts&optDRR != 0 {
		out = append(out, byte(s.quantum))
	}
	if s.opts&optChannel1 != 0 {
		out = append(out, byte(s.prio1))
		bad := s.bad1
		if bad == nil {
			bad = make([]bool, len(s.pdus1))
		}
		out = encodeTx(out, s.pdus1, bad, s.gap)
	}
	if s.opts&optFaults != 0 {
		out = append(out, byte(s.loss), byte(s.corr), byte(s.dupl), byte(s.skew))
	}
	if len(s.idle) > 0 {
		out = append(out, byte(len(s.idle)))
		for _, b := range s.idle {
			out = append(out, byte(b))
		}
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
	// Faulty links under four-AAL5 framing with double-cell DMA and
	// every reassembly check: CRC mismatches, a duplicated Last cell,
	// resynchronization after lost cells.
	rigSpec{flags: 2, recvSlots: 5, txSlots: 6, fifo: 12, pdus: [][]int{{10, 20}, {9}, {20, 6}, {15}, {30, 25}, {12}, {18}, {22}, {9, 9}, {30}, {14}, {25}}, gap: 1, reap: 3,
		opts: optCheckCRC | optRejectDup | optResync | optFaults, loss: 1, corr: 1, dupl: 2, skew: 3}.bytes(),
	// The same under SeqNum framing and arbitrary-length DMA:
	// duplicates caught by sequence number.
	rigSpec{flags: 16, recvSlots: 5, txSlots: 6, fifo: 12, policy: 2, pdus: [][]int{{10, 20}, {9}, {20, 6}, {15}, {30, 25}, {12}, {18}, {22}, {9, 9}, {30}, {14}, {25}}, gap: 1, reap: 3,
		opts: optCheckCRC | optRejectDup | optResync | optFaults, loss: 1, corr: 1, dupl: 3, skew: 2}.bytes(),
	// Arrival-order reassembly and FixedCell trailer cells while a
	// second channel shares the link under DRR, one of its PDUs naming
	// a frame it may not use; small transmit rings raise notify-flag
	// interrupts.
	rigSpec{flags: 0, recvSlots: 5, txSlots: 0, fifo: 12, policy: 1, pdus: [][]int{{100, 120}, {90}, {200, 60}, {150}, {30, 250}}, reap: 3,
		opts: optArrival | optDRR | optChannel1, quantum: 1, prio1: 0,
		pdus1: [][]int{{60}, {100}, {20, 40}, {200}, {80}}, bad1: []bool{false, true, false, false, false}}.bytes(),
	// A per-channel receive FIFO quota of two cells against two
	// channels' loopback traffic, the second at higher priority.
	rigSpec{flags: 2, recvSlots: 5, txSlots: 2, fifo: 12, pdus: [][]int{{100, 120}, {90}, {200, 60}}, reap: 2,
		opts: optQuota | optChannel1, quota: 1, prio1: 1,
		pdus1: [][]int{{160}, {100}, {20, 240}, {200}}}.bytes(),
	// Fourteen idle channels beside the kernel channel, opening from the
	// start to mid-run, some at priority 1 and some with the notify flag
	// set: the scan probes runs of them in place, and probes that
	// straddle the transmit DMA's and the host's events.
	rigSpec{flags: 2, recvSlots: 5, txSlots: 6, fifo: 12, pdus: [][]int{{100, 120}, {90}, {200, 60}, {150}, {30, 250}, {40}, {120, 8}}, gap: 1, reap: 3,
		idle: []int{0, 1, 0, 2, 4 << 2, 6<<2 | 1, 0, 3, 10 << 2, 12<<2 | 2, 1, 0, 20<<2 | 1, 0}}.bytes(),
	// The same under DRR with channel 1 closed, so the open channels
	// skip a hole, on a serialized bus with CPU contention.
	rigSpec{flags: 1, recvSlots: 5, txSlots: 4, fifo: 12, policy: 2, pdus: [][]int{{60, 60}, {90}, {200}, {20, 20, 20}, {150}}, gap: 2, reap: 4, cpu: 2,
		opts: optDRR, quantum: 2, idle: []int{1, 0, 3, 8 << 2, 0, 2 << 2, 5, 0, 16 << 2}}.bytes(),
	// An input on which a probe that re-read its peek index when its
	// head load took effect, instead of fixing it when the load was
	// issued, diverged from the reference procs: the transmit DMA
	// consumes descriptors between the two instants.
	[]byte("(00010710001070100000010X0"),
}

// FuzzDMAEnginesMatchProcs is the oracle for the continuation-driven
// board: on any workload the rig can build, every traced event, every
// host-side receive, the engine's event count and clock, and the
// board, bus, dual-port memory and link counters are exactly those of
// the reference procs (engines_ref_test.go) for the processors, the
// DMA controllers and the generator.
func FuzzDMAEnginesMatchProcs(f *testing.F) {
	for _, s := range dmaSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 160 {
			return
		}
		got, want := dmaRig(data, false), dmaRig(data, true)
		got.inPlace = 0
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
// work, the ring and FIFO overflow, the generator and the links carry
// cells, every reassembly strategy and transmit policy runs, and each
// firmware check and arbiter fires.
func TestDMARigCoversConditions(t *testing.T) {
	n := map[string]int64{}
	for _, s := range dmaSeeds {
		r, res := decodeRig(s), dmaRig(s, false)
		st := res.Board
		n["ring drops"] += st.RecvRingDropped
		n["FIFO drops"] += st.CellsDroppedFIFO
		n["double-cell DMAs"] += st.CombinedDMAs
		n["cells sent"] += st.CellsTx
		n["generated cells"] += st.CellsRx - res.Links.Delivered
		n["PDUs received, "+r.cfg.Strategy.String()] += st.PDUsRx
		n["PDUs sent, "+r.cfg.TxPolicy.String()] += st.PDUsTx
		if r.cfg.TxPolicy == FixedCell {
			n["partial cells sent, fixed-cell"] += st.PartialCellsTx
		}
		n["CRC mismatches"] += st.PDUsCRCDropped
		n["duplicate cells"] += st.CellsDuplicate
		n["resync cells"] += st.CellsResync
		n["quota drops"] += st.CellsQuotaDropped
		n["transmit violations"] += st.Violations
		if !r.cfg.InterruptPerPDU {
			n["notify-flag interrupts"] += st.TxIRQs
		}
		n["idle channels probed in place"] += res.inPlace
		for line := TxIRQBase + 2; line < TxIRQBase+NumChannels; line++ {
			n["notify-flag interrupts, idle channels"] += int64(strings.Count(strings.Join(res.Trace, "\n"), fmt.Sprintf(" irq %d\n", line)))
		}
		if r.cfg.TxDRRQuantum > 0 && r.ch1 {
			n["PDUs sent under DRR, channel 1"] += int64(strings.Count(strings.Join(res.Trace, "\n"), fmt.Sprintf("tx-start %d ", rigLoop1VCI)))
		}
	}
	for _, cond := range []string{
		"ring drops", "FIFO drops", "double-cell DMAs", "cells sent", "generated cells",
		"PDUs received, four-aal5", "PDUs received, seqnum", "PDUs received, arrival-order",
		"PDUs sent, boundary-stop", "PDUs sent, fixed-cell", "PDUs sent, arbitrary-length", "partial cells sent, fixed-cell",
		"CRC mismatches", "duplicate cells", "resync cells", "quota drops", "transmit violations",
		"notify-flag interrupts", "PDUs sent under DRR, channel 1",
		"idle channels probed in place", "notify-flag interrupts, idle channels",
	} {
		t.Logf("%s: %d", cond, n[cond])
		if n[cond] <= 0 {
			t.Errorf("no seed produces %s", cond)
		}
	}
}
