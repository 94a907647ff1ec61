package scenario

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/adc"
	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/dpm"
	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/fbuf"
	"repro/internal/hostsim"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The rigs below are in the paper's section order. Each builds its own
// simulated system and returns its ablations row's result text; those
// that build a testbed take their options through Config.options.

// ringTime measures §2.1.1's queue-discipline ablation: one push/pop
// pair over a lock-free or a spin-lock host/board ring.
func ringTime(spin bool) (string, error) {
	e := sim.NewEngine(1)
	d := dpm.New(e, bus.New(e, bus.Config{}))
	const ops = 400
	var push func(p *sim.Proc) bool
	var pop func(p *sim.Proc) bool
	if spin {
		r := queue.NewSpinRing(d, dpm.SendLock, 0, 16)
		push = func(p *sim.Proc) bool { return r.TryPush(p, dpm.Host, queue.Desc{}) }
		pop = func(p *sim.Proc) bool { _, ok := r.TryPop(p, dpm.Board); return ok }
	} else {
		r := queue.NewRing(d, 0, 16)
		push = func(p *sim.Proc) bool { return r.TryPush(p, dpm.Host, queue.Desc{}) }
		pop = func(p *sim.Proc) bool { _, ok := r.TryPop(p, dpm.Board); return ok }
	}
	done := 0
	e.Go("host", func(p *sim.Proc) {
		for i := 0; i < ops; {
			if push(p) {
				i++
			} else {
				p.Sleep(200 * time.Nanosecond)
			}
		}
	})
	e.Go("board", func(p *sim.Proc) {
		for done < ops {
			if pop(p) {
				done++
			} else {
				p.Sleep(200 * time.Nanosecond)
			}
		}
	})
	end := e.Run()
	e.Shutdown()
	d.Release()
	return fmt.Sprintf("%v/op", time.Duration(end)/ops), e.CheckPools()
}

// irqPerPDU measures §2.1.2's interrupt suppression: receive interrupts
// per PDU for isolated arrivals against a burst train absorbed by a
// busy host.
func irqPerPDU(burst bool) (string, error) {
	e := sim.NewEngine(1)
	h := hostsim.New(e, hostsim.DEC3000_600(), 4096)
	bd := board.New(e, h, board.Config{})
	d := driver.New(e, h, bd, driver.Config{Cache: driver.CacheNone})
	const n = 20
	received := 0
	d.OpenPath(10, func(p *sim.Proc, m *msg.Message) {
		received++
		if burst {
			h.Compute(p, 200*time.Microsecond) // busy application
		}
	})
	pdu := proto.BuildUDPFragments(workload.Payload(1000, 1), 1, 2, 1, 2, 16384, false, 1)
	interval := 3 * time.Millisecond
	if burst {
		interval = 0
	}
	e.Go("gen", func(p *sim.Proc) {
		for k := 0; k < n; k++ {
			cells := atm.Segment(10, pdu[0], 4, false)
			for i := range cells {
				for !bd.InjectCell(cells[i], i%4) {
					p.Sleep(2 * time.Microsecond)
				}
				p.Sleep(700 * time.Nanosecond)
			}
			if interval > 0 {
				p.Sleep(interval)
			}
		}
	})
	e.RunUntil(e.Now().Add(200 * time.Millisecond))
	e.Shutdown()
	bd.Release()
	h.Release()
	if received == 0 {
		return "", errors.New("no PDUs received")
	}
	return fmt.Sprintf("%.4f irq/PDU", float64(h.Int.Count(board.RxIRQBase))/float64(received)), nil
}

// rxMbps measures the DECstation's receive throughput for msgs
// messages of size bytes under the given driver and board settings:
// §2.1.2's interrupt discipline (4 KB, where the 75 µs interrupt cost
// dominates) and §2.3's cache invalidation.
func rxMbps(cfg Config, dc driver.Config, bc board.Config, size, msgs int) (string, error) {
	opt := cfg.options(dsOptions())
	opt.Driver, opt.Board = dc, bc
	tb := core.NewTestbed(opt)
	defer tb.Shutdown()
	mbps, err := tb.RunReceiveThroughput(size, msgs)
	return fmt.Sprintf("%.1f Mbps", mbps), err
}

// fragBuffers measures §2.2's buffer fragmentation: physical buffers
// sent for one 16 KB UDP/IP message, optionally misaligned, over the
// given MTU.
func fragBuffers(cfg Config, mtu, misalign int) (string, error) {
	opt := cfg.options(alOptions())
	opt.MTU = mtu
	tb := core.NewTestbed(opt)
	defer tb.Shutdown()
	tx, err := tb.A.IP.Open(proto.IPOpen{Remote: 2, VCI: 33, Proto: 99})
	if err != nil {
		return "", err
	}
	if _, err := tb.B.IP.Open(proto.IPOpen{Remote: 1, VCI: 33, Proto: 99}); err != nil {
		return "", err
	}
	var sendErr error
	tb.Eng.Go("send", func(p *sim.Proc) {
		data := workload.Payload(16384, 1)
		var m *msg.Message
		if misalign > 0 {
			m, sendErr = msg.FromBytesOffset(tb.A.Host.Kernel, data, misalign)
		} else {
			m, sendErr = msg.FromBytes(tb.A.Host.Kernel, data)
		}
		if sendErr != nil {
			return
		}
		sendErr = tx.Push(p, m)
		tb.A.Drv.Flush(p)
	})
	tb.Eng.Run()
	return fmt.Sprintf("%d buffers", tb.A.Drv.Stats().TxBuffers), errors.Join(sendErr, tb.CheckPools())
}

// sendTime measures §2.2's closing point: the driver's cost to send one
// scattered 4-page message as a descriptor chain or through a virtual
// DMA (scatter/gather map) host, with the map entries it used.
func sendTime(vdma bool) (string, error) {
	e := sim.NewEngine(1)
	h := hostsim.New(e, hostsim.DEC5000_200(), 4096)
	bd := board.New(e, h, board.Config{})
	d := driver.New(e, h, bd, driver.Config{Cache: driver.CacheLazy, VirtualDMA: vdma})
	bd.SetTxSink(func(atm.Cell, int) {})
	pt := d.OpenPath(10, nil)
	var cost time.Duration
	var err error
	e.Go("send", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond)
		var m *msg.Message
		if m, err = msg.FromBytes(h.Kernel, workload.Payload(4*4096, 1)); err != nil {
			return
		}
		start := p.Now()
		err = d.Send(p, pt, m, nil)
		cost = time.Duration(p.Now() - start)
		d.Flush(p)
	})
	e.Run()
	e.Shutdown()
	bd.Release()
	h.Release()
	out := fmt.Sprintf("%.2f µs/send", cost.Seconds()*1e6)
	if vdma {
		out += fmt.Sprintf(", %d map entries", d.Stats().SGMapEntries)
	}
	return out, errors.Join(err, e.CheckPools(), h.CheckPools(), bd.CheckPools(), d.CheckPools())
}

// contigBuffers measures §2.2's contiguous-allocation extension:
// physical buffers in one 4-page message built by the fragmenting
// default or the best-effort contiguous allocator.
func contigBuffers(contig bool) (string, error) {
	e := sim.NewEngine(1)
	h := hostsim.New(e, hostsim.DEC5000_200(), 4096)
	defer h.Release()
	defer e.Shutdown()
	data := workload.Payload(4*4096, 2)
	var m *msg.Message
	var err error
	if contig {
		m, _, err = msg.FromBytesContiguous(h.Kernel, data)
	} else {
		m, err = msg.FromBytes(h.Kernel, data)
	}
	if err != nil {
		return "", err
	}
	segs, err := m.PhysSegments()
	return fmt.Sprintf("%d buffers", len(segs)), err
}

// lossy measures the §2.3 premise: RDP delivery over a 1%-lossy link.
func lossy(cfg Config) (string, error) {
	opt := cfg.options(alOptions())
	opt.Link.Fault = &fault.Config{Loss: fault.Bernoulli{P: 0.01}}
	tb := core.NewTestbed(opt)
	defer tb.Shutdown()
	tx, err := tb.A.RDP.Open(proto.RDPOpen{Remote: 2, VCI: 60, Window: 4})
	if err != nil {
		return "", err
	}
	rxs, err := tb.B.RDP.Open(proto.RDPOpen{Remote: 1, VCI: 60, Window: 4})
	if err != nil {
		return "", err
	}
	got := 0
	rxs.SetHandler(func(p *sim.Proc, m *msg.Message) { got++ })
	tb.Eng.Go("s", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			mm, _ := msg.FromBytes(tb.A.Host.Kernel, workload.Payload(3000, byte(i)))
			tx.Push(p, mm)
		}
	})
	tb.Eng.RunUntil(tb.Eng.Now().Add(time.Second))
	return fmt.Sprintf("%d/10 delivered, %d retransmits", got, tb.A.RDP.Stats().Retransmits), nil
}

// wire measures §2.4's page-wiring ablation.
func wire(slow bool) (string, error) {
	e := sim.NewEngine(1)
	h := hostsim.New(e, hostsim.DEC5000_200(), 1024)
	var cost time.Duration
	e.Go("w", func(p *sim.Proc) {
		start := p.Now()
		h.WirePages(p, 4, slow)
		cost = time.Duration(p.Now() - start)
	})
	e.Run()
	e.Shutdown()
	h.Release()
	return cost.String(), errors.Join(e.CheckPools(), h.CheckPools())
}

// busMbps measures the TURBOchannel arithmetic of §2.5.1 and §2.7: the
// throughput of n back-to-back moves of bytes each on an idle bus.
func busMbps(n, bytes int, move func(b *bus.Bus, bytes int) sim.Hold) (string, error) {
	e := sim.NewEngine(1)
	bs := bus.New(e, bus.Config{})
	e.Go("mover", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			move(bs, bytes).Do(p)
		}
	})
	end := e.Run()
	e.Shutdown()
	return fmt.Sprintf("%.4g Mbps", float64(n*bytes*8)/end.Seconds()/1e6), e.CheckPools()
}

// pioRead moves bytes into the host by word-at-a-time programmed I/O.
func pioRead(b *bus.Bus, bytes int) sim.Hold { return b.PIORead(b.WordsFor(bytes)) }

// strat measures §2.6: delivery correctness under link skew for one
// reassembly strategy.
func strat(cfg Config, s board.ReassemblyStrategy) (string, error) {
	skew := atm.ConstantSkew{PerLink: []time.Duration{0, 9 * time.Microsecond, 3 * time.Microsecond, 14 * time.Microsecond}}
	opt := cfg.options(alOptions())
	opt.Board = board.Config{Strategy: s}
	opt.Link.Skew = skew
	tb := core.NewTestbed(opt)
	defer tb.Shutdown()
	tx, err := tb.A.Raw.Open(proto.RawOpen{VCI: 61})
	if err != nil {
		return "", err
	}
	rx, err := tb.B.Raw.Open(proto.RawOpen{VCI: 61})
	if err != nil {
		return "", err
	}
	data := workload.Payload(8000, 5)
	verdict := "loses"
	rx.SetHandler(func(p *sim.Proc, m *msg.Message) {
		b, _ := m.Bytes()
		if string(b) == string(data) {
			verdict = "correct"
		} else {
			verdict = "CORRUPTS"
		}
	})
	tb.Eng.Go("s", func(p *sim.Proc) {
		m, _ := msg.FromBytes(tb.A.Host.Kernel, data)
		tx.Push(p, m)
		tb.A.Drv.Flush(p)
	})
	tb.Eng.RunUntil(tb.Eng.Now().Add(50 * time.Millisecond))
	return verdict, nil
}

// combined measures §2.6's cost of skew to double-cell DMA: the
// fraction of a 16 KB PDU's cells the receive processor combines when
// link 1 lags the others by lag cell slots.
func combined(lag int) (string, error) {
	e := sim.NewEngine(5)
	h := hostsim.New(e, hostsim.DEC3000_600(), 2048)
	bd := board.New(e, h, board.Config{RxDMA: board.DoubleCell, Strategy: board.FourAAL5})
	bd.BindVCI(9, 0)
	ch := bd.KernelChannel()
	data := workload.Payload(16384, 8)
	var err error
	e.Go("feeder", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			var frames []mem.Frame
			if frames, err = h.Mem.AllocContiguous(4); err != nil {
				return
			}
			ch.FreeRing.TryPush(p, dpm.Host, queue.Desc{Addr: h.Mem.FrameAddr(frames[0]), Len: 16384})
		}
		cells := atm.Segment(9, data, 4, false)
		perLink := make([][]atm.Cell, 4)
		for i := range cells {
			perLink[i%4] = append(perLink[i%4], cells[i])
		}
		idx := make([]int, 4)
		for round := 0; ; round++ {
			for l := 0; l < 4; l++ {
				turn := round
				if l == 1 {
					turn = round - lag
				}
				if turn >= 0 && idx[l] < len(perLink[l]) && idx[l] <= turn {
					for !bd.InjectCell(perLink[l][idx[l]], l) {
						p.Sleep(2 * time.Microsecond)
					}
					idx[l]++
				}
			}
			finished := true
			for l := 0; l < 4; l++ {
				if idx[l] < len(perLink[l]) {
					finished = false
				}
			}
			if finished {
				return
			}
			p.Sleep(time.Microsecond)
		}
	})
	e.RunUntil(e.Now().Add(100 * time.Millisecond))
	e.Shutdown()
	bd.Release()
	h.Release()
	s := bd.Stats()
	total := 2*s.CombinedDMAs + s.SingleDMAs
	if err == nil && total == 0 {
		err = errors.New("no cells reached host memory")
	}
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%.2f%% of cells combined", 100*float64(2*s.CombinedDMAs)/float64(total)), nil
}

// fb measures §3.1's fbuf transfer cost, cached vs uncached path.
func fb(cached bool) (string, error) {
	e := sim.NewEngine(1)
	h := hostsim.New(e, hostsim.DEC5000_200(), 2048)
	m := fbuf.NewManager(h, 0)
	a := fbuf.NewDomain(h, "a")
	bdom := fbuf.NewDomain(h, "b")
	var cost time.Duration
	var err error
	e.Go("x", func(p *sim.Proc) {
		var f *fbuf.Fbuf
		if cached {
			if err = m.DefinePath(p, 7, []*fbuf.Domain{a, bdom}, 1, 16384); err != nil {
				return
			}
			f, err = m.Alloc(p, 7, a, 16384)
		} else {
			f, err = m.AllocUncached(p, a, 16384)
		}
		if err != nil {
			return
		}
		start := p.Now()
		err = f.Transfer(p, a, bdom)
		cost = time.Duration(p.Now() - start)
	})
	e.Run()
	e.Shutdown()
	h.Release()
	return cost.String(), errors.Join(err, e.CheckPools(), h.CheckPools())
}

// priorityDelivery measures §3.1's early-demux overload: high- and
// low-priority streams on one board, the low one starved of buffers.
// The result is the percentage of each stream delivered.
func priorityDelivery() (string, error) {
	e := sim.NewEngine(2)
	h := hostsim.New(e, hostsim.DEC3000_600(), 4096)
	bd := board.New(e, h, board.Config{})
	mix := workload.DefaultPriorityMix()
	hiCh := bd.OpenChannel(1, mix.HighPriority, nil)
	loCh := bd.OpenChannel(2, mix.LowPriority, nil)
	bd.BindVCI(21, 1)
	bd.BindVCI(22, 2)
	data := workload.Payload(mix.MessageBytes, 4)
	var hiGot, loGot int
	var err error
	e.Go("x", func(p *sim.Proc) {
		supply := func(ch *board.Channel, n int) error {
			for i := 0; i < n; i++ {
				frames, err := h.Mem.AllocContiguous(mix.MessageBytes / h.Mem.PageSize())
				if err != nil {
					return err
				}
				ch.FreeRing.TryPush(p, dpm.Host, queue.Desc{Addr: h.Mem.FrameAddr(frames[0]), Len: uint32(mix.MessageBytes)})
			}
			return nil
		}
		if err = supply(hiCh, mix.Messages*2); err == nil {
			err = supply(loCh, 1)
		}
		if err != nil {
			return
		}
		for k := 0; k < mix.Messages; k++ {
			for _, vci := range []atm.VCI{21, 22} {
				cells := atm.Segment(vci, data, 4, false)
				for i := range cells {
					for !bd.InjectCell(cells[i], i%4) {
						p.Sleep(2 * time.Microsecond)
					}
					p.Sleep(700 * time.Nanosecond)
				}
			}
		}
		p.Sleep(time.Millisecond)
		drain := func(ch *board.Channel) int {
			got := 0
			for {
				d, ok := ch.RecvRing.TryPop(p, dpm.Host)
				if !ok {
					return got
				}
				if d.Flags&queue.FlagEOP != 0 {
					got++
				}
			}
		}
		hiGot = drain(hiCh)
		loGot = drain(loCh)
	})
	e.Run()
	e.Shutdown()
	bd.Release()
	h.Release()
	return fmt.Sprintf("%.4g%% high, %.4g%% low delivered",
		100*float64(hiGot)/float64(mix.Messages), 100*float64(loGot)/float64(mix.Messages)), errors.Join(err, e.CheckPools(), h.CheckPools(), bd.CheckPools())
}

// pingRTT measures the §3.2/§4 headline: a 1 KB round trip between two
// DEC 3000/600s, kernel to kernel or user to user through ADCs.
func pingRTT(useADC bool) (string, error) {
	e := sim.NewEngine(11)
	hA := hostsim.New(e, hostsim.DEC3000_600(), 4096)
	hB := hostsim.New(e, hostsim.DEC3000_600(), 4096)
	bA := board.New(e, hA, board.Config{Name: "A"})
	bB := board.New(e, hB, board.Config{Name: "B"})
	ab := atm.NewStripeGroup(e, 4, atm.LinkConfig{})
	ba := atm.NewStripeGroup(e, 4, atm.LinkConfig{})
	bA.AttachTxLinks(ab.Links())
	bB.AttachRxLinks(ab)
	bB.AttachTxLinks(ba.Links())
	bA.AttachRxLinks(ba)

	data := workload.Payload(1024, 3)
	var out time.Duration
	var err error
	e.Go("main", func(p *sim.Proc) {
		var dA, dB *driver.Driver
		var spA, spB *mem.AddressSpace
		var txA, txB mem.VirtAddr
		if useADC {
			appA := adc.NewAppDomain(hA, "appA")
			appB := adc.NewAppDomain(hB, "appB")
			var a, b *adc.ADC
			if a, err = adc.NewManager(hA, bA).Open(p, appA, []atm.VCI{50, 51}, adc.Config{}); err != nil {
				return
			}
			if b, err = adc.NewManager(hB, bB).Open(p, appB, []atm.VCI{50, 51}, adc.Config{}); err != nil {
				return
			}
			dA, dB = a.Driver(), b.Driver()
			spA, spB = appA.Space, appB.Space
			txA, _, _ = a.TxBuffer(0)
			txB, _, _ = b.TxBuffer(0)
		} else {
			dA = driver.New(e, hA, bA, driver.Config{Cache: driver.CacheNone})
			dB = driver.New(e, hB, bB, driver.Config{Cache: driver.CacheNone})
			spA, spB = hA.Kernel, hB.Kernel
			txA, _ = spA.Alloc(len(data))
			txB, _ = spB.Alloc(len(data))
		}
		p.Sleep(5 * time.Millisecond) // let init settle
		done := sim.NewCond(e)
		replied := false
		var ptB *driver.Path
		dB.OpenPath(50, func(hp *sim.Proc, m *msg.Message) {
			bts, _ := m.Bytes()
			spB.WriteVirt(txB, bts)
			dB.Send(hp, ptB, msg.New(msg.Fragment{Space: spB, VA: txB, Len: len(bts)}), nil)
		})
		ptB = dB.OpenPath(51, nil)
		dA.OpenPath(51, func(hp *sim.Proc, m *msg.Message) {
			replied = true
			done.Broadcast()
		})
		ptA := dA.OpenPath(50, nil)
		spA.WriteVirt(txA, data)
		start := p.Now()
		if err = dA.Send(p, ptA, msg.New(msg.Fragment{Space: spA, VA: txA, Len: len(data)}), nil); err != nil {
			return
		}
		for !replied {
			done.Wait(p)
		}
		out = time.Duration(p.Now() - start)
	})
	e.Run()
	e.Shutdown()
	bA.Release()
	bB.Release()
	hA.Release()
	hB.Release()
	if err == nil && out == 0 {
		err = errors.New("no reply")
	}
	return fmt.Sprintf("%.1f µs RTT", out.Seconds()*1e6), errors.Join(err, e.CheckPools(), hA.CheckPools(), hB.CheckPools(), bA.CheckPools(), bB.CheckPools())
}
