// Package repro's benchmark harness regenerates every table and figure
// of the paper's evaluation (§4) plus the design-choice ablations from
// DESIGN.md. Benchmarks report the *simulated* quantity (µs of virtual
// round-trip time, Mbps of virtual throughput) via b.ReportMetric;
// wall-clock ns/op only measures the simulator itself.
//
// Run everything:   go test -bench=. -benchtime=1x
// One figure:       go test -bench=Figure2 -benchtime=1x
package repro

import (
	"testing"
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

func dsOpt() core.Options {
	return core.Options{Profile: hostsim.DEC5000_200(), Driver: driver.Config{Cache: driver.CacheLazy}}
}

func alOpt() core.Options {
	return core.Options{Profile: hostsim.DEC3000_600(), Driver: driver.Config{Cache: driver.CacheNone}}
}

// BenchmarkTable1_RTT regenerates Table 1: round-trip latencies for raw
// ATM and UDP/IP test programs on both machine generations.
func BenchmarkTable1_RTT(b *testing.B) {
	paper := map[string]float64{
		"DEC5000/200/ATM/1": 353, "DEC5000/200/ATM/1024": 417, "DEC5000/200/ATM/2048": 486, "DEC5000/200/ATM/4096": 778,
		"DEC5000/200/UDP-IP/1": 598, "DEC5000/200/UDP-IP/1024": 659, "DEC5000/200/UDP-IP/2048": 725, "DEC5000/200/UDP-IP/4096": 1011,
		"DEC3000/600/ATM/1": 154, "DEC3000/600/ATM/1024": 215, "DEC3000/600/ATM/2048": 283, "DEC3000/600/ATM/4096": 449,
		"DEC3000/600/UDP-IP/1": 316, "DEC3000/600/UDP-IP/1024": 376, "DEC3000/600/UDP-IP/2048": 446, "DEC3000/600/UDP-IP/4096": 619,
	}
	for _, m := range []struct {
		name string
		opt  core.Options
	}{{"DEC5000/200", dsOpt()}, {"DEC3000/600", alOpt()}} {
		for _, k := range []struct {
			name string
			kind core.ProtoKind
		}{{"ATM", core.ATMRaw}, {"UDP-IP", core.UDPIP}} {
			for _, size := range workload.Table1Sizes() {
				name := m.name + "/" + k.name + "/" + itoa(size)
				b.Run(name, func(b *testing.B) {
					var rtt time.Duration
					for i := 0; i < b.N; i++ {
						tb := core.NewTestbed(m.opt)
						var err error
						rtt, err = tb.RunLatency(k.kind, size, 3)
						tb.Shutdown()
						if err != nil {
							b.Fatal(err)
						}
					}
					us := rtt.Seconds() * 1e6
					b.ReportMetric(us, "sim-µs/rtt")
					b.ReportMetric(paper[name], "paper-µs/rtt")
				})
			}
		}
	}
}

func rxBench(b *testing.B, opt core.Options, size int, paperMbps float64) {
	b.Helper()
	var mbps float64
	for i := 0; i < b.N; i++ {
		tb := core.NewTestbed(opt)
		var err error
		mbps, err = tb.RunReceiveThroughput(size, 10)
		tb.Shutdown()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mbps, "sim-Mbps")
	if paperMbps > 0 {
		b.ReportMetric(paperMbps, "paper-Mbps")
	}
}

// BenchmarkFigure2_ReceiveThroughput5000 regenerates Figure 2: the
// DECstation 5000/200's receive-side UDP/IP throughput under the DMA
// and cache-policy variants (board in fictitious-PDU mode).
func BenchmarkFigure2_ReceiveThroughput5000(b *testing.B) {
	ds := dsOpt()
	dbl := ds
	dbl.Board = board.Config{RxDMA: board.DoubleCell}
	eager := ds
	eager.Driver = driver.Config{Cache: driver.CacheEager}
	cs := ds
	cs.Checksum = true
	curves := []struct {
		name  string
		opt   core.Options
		paper map[int]float64
	}{
		{"double-cell", dbl, map[int]float64{65536: 379}},
		{"single-cell", ds, map[int]float64{65536: 340}},
		{"single-cell-invalidated", eager, map[int]float64{65536: 250}},
		{"single-cell-udpcs", cs, map[int]float64{65536: 80}},
	}
	for _, c := range curves {
		for _, size := range []int{1024, 16384, 65536, 262144} {
			b.Run(c.name+"/"+itoa(size), func(b *testing.B) {
				rxBench(b, c.opt, size, c.paper[size])
			})
		}
	}
}

// BenchmarkFigure3_ReceiveThroughput3000 regenerates Figure 3: the
// DEC 3000/600's receive side, with and without UDP checksumming.
func BenchmarkFigure3_ReceiveThroughput3000(b *testing.B) {
	al := alOpt()
	dbl := al
	dbl.Board = board.Config{RxDMA: board.DoubleCell}
	dblCS := dbl
	dblCS.Checksum = true
	sglCS := al
	sglCS.Checksum = true
	curves := []struct {
		name  string
		opt   core.Options
		paper map[int]float64
	}{
		{"double-cell", dbl, map[int]float64{65536: 516}},
		{"double-cell-udpcs", dblCS, map[int]float64{65536: 438}},
		{"single-cell", al, map[int]float64{65536: 460}},
		{"single-cell-udpcs", sglCS, nil},
	}
	for _, c := range curves {
		for _, size := range []int{1024, 16384, 65536, 262144} {
			b.Run(c.name+"/"+itoa(size), func(b *testing.B) {
				rxBench(b, c.opt, size, c.paper[size])
			})
		}
	}
}

// BenchmarkFigure4_TransmitThroughput regenerates Figure 4: the
// transmit side in isolation, single-cell DMA (the hardware change for
// longer transmit DMAs "was not completed at the time of writing").
func BenchmarkFigure4_TransmitThroughput(b *testing.B) {
	alCS := alOpt()
	alCS.Checksum = true
	curves := []struct {
		name  string
		opt   core.Options
		paper map[int]float64
	}{
		{"3000-600", alOpt(), map[int]float64{65536: 325}},
		{"3000-600-udpcs", alCS, nil},
		{"5000-200", dsOpt(), map[int]float64{65536: 280}},
	}
	for _, c := range curves {
		for _, size := range []int{1024, 16384, 65536, 262144} {
			b.Run(c.name+"/"+itoa(size), func(b *testing.B) {
				var mbps float64
				for i := 0; i < b.N; i++ {
					opt := c.opt
					opt.TxIsolated = true
					tb := core.NewTestbed(opt)
					var err error
					mbps, err = tb.RunTransmitThroughput(size, 10)
					tb.Shutdown()
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(mbps, "sim-Mbps")
				if p := c.paper[size]; p > 0 {
					b.ReportMetric(p, "paper-Mbps")
				}
			})
		}
	}
}

// BenchmarkDMAOverhead verifies the §2.5.1 cycle arithmetic: the
// TURBOchannel ceilings for single- and double-cell DMA in each
// direction (367/463/503/587 Mbps).
func BenchmarkDMAOverhead(b *testing.B) {
	for _, c := range []struct {
		name  string
		bytes int
		read  bool
		paper float64
	}{
		{"tx-single-44B", 44, true, 367},
		{"rx-single-44B", 44, false, 463},
		{"tx-double-88B", 88, true, 503},
		{"rx-double-88B", 88, false, 587},
	} {
		b.Run(c.name, func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				e := sim.NewEngine(1)
				bs := bus.New(e, bus.Config{})
				const n = 2000
				e.Go("dma", func(p *sim.Proc) {
					for j := 0; j < n; j++ {
						if c.read {
							bs.DMARead(p, c.bytes)
						} else {
							bs.DMAWrite(p, c.bytes)
						}
					}
				})
				end := e.Run()
				e.Shutdown()
				mbps = float64(n*c.bytes*8) / end.Seconds() / 1e6
			}
			b.ReportMetric(mbps, "sim-Mbps")
			b.ReportMetric(c.paper, "paper-Mbps")
		})
	}
}

// BenchmarkLockFreeVsSpinLock is the §2.1.1 ablation: the lock-free
// 1R1W descriptor rings against a test-and-set-protected ring under
// concurrent host/board access.
func BenchmarkLockFreeVsSpinLock(b *testing.B) {
	const ops = 500
	run := func(spin bool) time.Duration {
		e := sim.NewEngine(1)
		d := dpm.New(e, bus.New(e, bus.Config{}))
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
		return time.Duration(end)
	}
	b.Run("lock-free", func(b *testing.B) {
		var d time.Duration
		for i := 0; i < b.N; i++ {
			d = run(false)
		}
		b.ReportMetric(d.Seconds()*1e9/ops, "sim-ns/op")
	})
	b.Run("spin-lock", func(b *testing.B) {
		var d time.Duration
		for i := 0; i < b.N; i++ {
			d = run(true)
		}
		b.ReportMetric(d.Seconds()*1e9/ops, "sim-ns/op")
	})
}

// BenchmarkInterruptSuppression quantifies §2.1.2: interrupts per PDU
// for isolated arrivals vs a burst train absorbed by a busy host.
func BenchmarkInterruptSuppression(b *testing.B) {
	run := func(burst bool) float64 {
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
		if received == 0 {
			b.Fatal("no PDUs received")
		}
		return float64(h.Int.Count(board.RxIRQBase)) / float64(received)
	}
	b.Run("isolated", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(false)
		}
		b.ReportMetric(v, "irq/pdu")
	})
	b.Run("burst", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(true)
		}
		b.ReportMetric(v, "irq/pdu")
	})
}

// BenchmarkFragmentation is the §2.2 ablation: physical buffers per
// 16 KB message under the naive MTU vs the page-aligned MTU.
func BenchmarkFragmentation(b *testing.B) {
	count := func(mtu, misalign int) float64 {
		opt := alOpt()
		opt.MTU = mtu
		tb := core.NewTestbed(opt)
		defer tb.Shutdown()
		tx, err := tb.A.IP.Open(proto.IPOpen{Remote: 2, VCI: 33, Proto: 99})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tb.B.IP.Open(proto.IPOpen{Remote: 1, VCI: 33, Proto: 99}); err != nil {
			b.Fatal(err)
		}
		tb.Eng.Go("send", func(p *sim.Proc) {
			data := workload.Payload(16384, 1)
			var m *msg.Message
			var err error
			if misalign > 0 {
				m, err = msg.FromBytesOffset(tb.A.Host.Kernel, data, misalign)
			} else {
				m, err = msg.FromBytes(tb.A.Host.Kernel, data)
			}
			if err != nil {
				b.Fatal(err)
			}
			tx.Push(p, m)
			tb.A.Drv.Flush(p)
		})
		tb.Eng.Run()
		return float64(tb.A.Drv.Stats().TxBuffers)
	}
	b.Run("naive-mtu-misaligned", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = count(4096, 128)
		}
		b.ReportMetric(v, "buffers/16KB-msg")
		b.ReportMetric(14, "paper-max-buffers")
	})
	b.Run("page-aligned-mtu", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = count(4096+proto.IPHeaderSize, 0)
		}
		b.ReportMetric(v, "buffers/16KB-msg")
	})
}

// BenchmarkLazyInvalidation is the §2.3 ablation: per-PDU receive cost
// with eager vs lazy cache invalidation on the DECstation.
func BenchmarkLazyInvalidation(b *testing.B) {
	run := func(policy driver.CachePolicy) float64 {
		opt := dsOpt()
		opt.Driver = driver.Config{Cache: policy}
		tb := core.NewTestbed(opt)
		defer tb.Shutdown()
		mbps, err := tb.RunReceiveThroughput(16384, 8)
		if err != nil {
			b.Fatal(err)
		}
		return mbps
	}
	b.Run("lazy", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(driver.CacheLazy)
		}
		b.ReportMetric(v, "sim-Mbps")
	})
	b.Run("eager", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(driver.CacheEager)
		}
		b.ReportMetric(v, "sim-Mbps")
	})
}

// BenchmarkSkewVsDoubleCell is the §2.6 observation: skew reduces the
// fraction of cells the receive processor can combine into double-cell
// DMAs.
func BenchmarkSkewVsDoubleCell(b *testing.B) {
	run := func(lag int) float64 {
		e := sim.NewEngine(5)
		h := hostsim.New(e, hostsim.DEC3000_600(), 2048)
		bd := board.New(e, h, board.Config{RxDMA: board.DoubleCell, Strategy: board.FourAAL5})
		bd.BindVCI(9, 0)
		ch := bd.KernelChannel()
		data := workload.Payload(16384, 8)
		e.Go("feeder", func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				frames, err := h.Mem.AllocContiguous(4)
				if err != nil {
					b.Fatal(err)
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
		s := bd.Stats()
		total := 2*s.CombinedDMAs + s.SingleDMAs
		if total == 0 {
			return 0
		}
		return float64(2*s.CombinedDMAs) / float64(total)
	}
	b.Run("no-skew", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(0)
		}
		b.ReportMetric(100*v, "combined-%")
	})
	b.Run("skewed", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(3)
		}
		b.ReportMetric(100*v, "combined-%")
	})
}

// BenchmarkDMAvsPIO is the §2.7 comparison: moving one cell of data by
// DMA vs word-at-a-time programmed I/O across the TURBOchannel.
func BenchmarkDMAvsPIO(b *testing.B) {
	run := func(pio bool) float64 {
		e := sim.NewEngine(1)
		bs := bus.New(e, bus.Config{})
		const cells = 1000
		e.Go("mover", func(p *sim.Proc) {
			for i := 0; i < cells; i++ {
				if pio {
					bs.PIORead(p, 11)
				} else {
					bs.DMAWrite(p, 44)
				}
			}
		})
		end := e.Run()
		e.Shutdown()
		return float64(cells*44*8) / end.Seconds() / 1e6
	}
	b.Run("dma", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(false)
		}
		b.ReportMetric(v, "sim-Mbps")
	})
	b.Run("pio", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(true)
		}
		b.ReportMetric(v, "sim-Mbps")
	})
}

// BenchmarkFbufCachedVsUncached is the §3.1 claim: cached vs uncached
// fbuf transfer across one domain boundary.
func BenchmarkFbufCachedVsUncached(b *testing.B) {
	run := func(cached bool) float64 {
		e := sim.NewEngine(1)
		h := hostsim.New(e, hostsim.DEC5000_200(), 4096)
		m := fbuf.NewManager(h, 0)
		a := fbuf.NewDomain(h, "a")
		d := fbuf.NewDomain(h, "b")
		var cost time.Duration
		e.Go("x", func(p *sim.Proc) {
			if cached {
				if err := m.DefinePath(p, 7, []*fbuf.Domain{a, d}, 1, 16384); err != nil {
					b.Fatal(err)
				}
			}
			var f *fbuf.Fbuf
			var err error
			if cached {
				f, err = m.Alloc(p, 7, a, 16384)
			} else {
				f, err = m.AllocUncached(p, a, 16384)
			}
			if err != nil {
				b.Fatal(err)
			}
			start := p.Now()
			if err := f.Transfer(p, a, d); err != nil {
				b.Fatal(err)
			}
			cost = time.Duration(p.Now() - start)
		})
		e.Run()
		e.Shutdown()
		return cost.Seconds() * 1e6
	}
	b.Run("cached", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(true)
		}
		b.ReportMetric(v, "sim-µs/transfer")
	})
	b.Run("uncached", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(false)
		}
		b.ReportMetric(v, "sim-µs/transfer")
	})
}

// BenchmarkADCVsKernelLatency is the §3.2/§4 headline: kernel-to-kernel
// vs user-to-user-via-ADC round-trip latency.
func BenchmarkADCVsKernelLatency(b *testing.B) {
	rtt := func(useADC bool) float64 {
		e := sim.NewEngine(11)
		hA := hostsim.New(e, hostsim.DEC3000_600(), 4096)
		hB := hostsim.New(e, hostsim.DEC3000_600(), 4096)
		bA := board.New(e, hA, board.Config{Name: "A"})
		bB := board.New(e, hB, board.Config{Name: "B"})
		ab := atm.NewStripeGroup(e, 4, atm.LinkConfig{})
		ba := atm.NewStripeGroup(e, 4, atm.LinkConfig{})
		linksOf := func(g *atm.StripeGroup) []*atm.Link {
			ls := make([]*atm.Link, g.Width())
			for i := range ls {
				ls[i] = g.Link(i)
			}
			return ls
		}
		bA.AttachTxLinks(linksOf(ab))
		bB.AttachRxLinks(ab)
		bB.AttachTxLinks(linksOf(ba))
		bA.AttachRxLinks(ba)

		data := workload.Payload(1024, 3)
		var out time.Duration
		e.Go("main", func(p *sim.Proc) {
			var dA, dB *driver.Driver
			var spA, spB *mem.AddressSpace
			var txA, txB mem.VirtAddr
			if useADC {
				appA := adc.NewAppDomain(hA, "appA")
				appB := adc.NewAppDomain(hB, "appB")
				a, err := adc.NewManager(hA, bA).Open(p, appA, []atm.VCI{50, 51}, adc.Config{})
				if err != nil {
					b.Fatal(err)
				}
				bb, err := adc.NewManager(hB, bB).Open(p, appB, []atm.VCI{50, 51}, adc.Config{})
				if err != nil {
					b.Fatal(err)
				}
				dA, dB = a.Driver(), bb.Driver()
				spA, spB = appA.Space, appB.Space
				txA, _, _ = a.TxBuffer(0)
				txB, _, _ = bb.TxBuffer(0)
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
			dA.Send(p, ptA, msg.New(msg.Fragment{Space: spA, VA: txA, Len: len(data)}), nil)
			for !replied {
				done.Wait(p)
			}
			out = time.Duration(p.Now() - start)
		})
		e.Run()
		e.Shutdown()
		return out.Seconds() * 1e6
	}
	b.Run("kernel-to-kernel", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = rtt(false)
		}
		b.ReportMetric(v, "sim-µs/rtt")
	})
	b.Run("user-via-adc", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = rtt(true)
		}
		b.ReportMetric(v, "sim-µs/rtt")
	})
}

// BenchmarkWiring is the §2.4 ablation: fast low-level page wiring vs
// the heavyweight standard service, per 4-page PDU.
func BenchmarkWiring(b *testing.B) {
	run := func(slow bool) float64 {
		e := sim.NewEngine(1)
		h := hostsim.New(e, hostsim.DEC5000_200(), 2048)
		var cost time.Duration
		e.Go("x", func(p *sim.Proc) {
			start := p.Now()
			h.WirePages(p, 4, slow)
			cost = time.Duration(p.Now() - start)
		})
		e.Run()
		e.Shutdown()
		return cost.Seconds() * 1e6
	}
	b.Run("fast", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(false)
		}
		b.ReportMetric(v, "sim-µs/4pages")
	})
	b.Run("slow", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(true)
		}
		b.ReportMetric(v, "sim-µs/4pages")
	})
}

// BenchmarkPriorityOverload is the §3.1 overload scenario: high- and
// low-priority streams with the low one starved of buffers; reports the
// fraction of each stream delivered.
func BenchmarkPriorityOverload(b *testing.B) {
	run := func() (hi, lo float64) {
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
		e.Go("x", func(p *sim.Proc) {
			supply := func(ch *board.Channel, n int) {
				for i := 0; i < n; i++ {
					frames, err := h.Mem.AllocContiguous(mix.MessageBytes / h.Mem.PageSize())
					if err != nil {
						b.Fatal(err)
					}
					ch.FreeRing.TryPush(p, dpm.Host, queue.Desc{Addr: h.Mem.FrameAddr(frames[0]), Len: uint32(mix.MessageBytes)})
				}
			}
			supply(hiCh, mix.Messages*2)
			supply(loCh, 1)
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
		return float64(hiGot) / float64(mix.Messages), float64(loGot) / float64(mix.Messages)
	}
	b.Run("delivery", func(b *testing.B) {
		var hi, lo float64
		for i := 0; i < b.N; i++ {
			hi, lo = run()
		}
		b.ReportMetric(100*hi, "hi-prio-%")
		b.ReportMetric(100*lo, "lo-prio-%")
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkVirtualDMA is the §2.2 closing ablation: descriptor-chain
// transmit vs a scatter/gather-map (virtual DMA) host, per scattered
// 4-page message. Fragmentation costs survive the map.
func BenchmarkVirtualDMA(b *testing.B) {
	send := func(vdma bool) (us float64, entries float64) {
		e := sim.NewEngine(1)
		h := hostsim.New(e, hostsim.DEC5000_200(), 4096)
		bd := board.New(e, h, board.Config{})
		d := driver.New(e, h, bd, driver.Config{Cache: driver.CacheLazy, VirtualDMA: vdma})
		bd.SetTxSink(func(atm.Cell, int) {})
		pt := d.OpenPath(10, nil)
		var cost time.Duration
		e.Go("send", func(p *sim.Proc) {
			p.Sleep(2 * time.Millisecond)
			m, err := msg.FromBytes(h.Kernel, workload.Payload(4*4096, 1))
			if err != nil {
				b.Fatal(err)
			}
			start := p.Now()
			d.Send(p, pt, m, nil)
			cost = time.Duration(p.Now() - start)
			d.Flush(p)
		})
		e.Run()
		e.Shutdown()
		return cost.Seconds() * 1e6, float64(d.Stats().SGMapEntries)
	}
	b.Run("descriptor-chain", func(b *testing.B) {
		var us float64
		for i := 0; i < b.N; i++ {
			us, _ = send(false)
		}
		b.ReportMetric(us, "sim-µs/send")
	})
	b.Run("virtual-dma", func(b *testing.B) {
		var us, entries float64
		for i := 0; i < b.N; i++ {
			us, entries = send(true)
		}
		b.ReportMetric(us, "sim-µs/send")
		b.ReportMetric(entries, "map-entries")
	})
}

// BenchmarkContiguousAlloc is the §2.2 "currently experimenting with"
// extension: best-effort physically contiguous message allocation vs
// the fragmenting default, measured in descriptors per 4-page message.
func BenchmarkContiguousAlloc(b *testing.B) {
	count := func(contig bool) float64 {
		e := sim.NewEngine(1)
		h := hostsim.New(e, hostsim.DEC5000_200(), 4096)
		data := workload.Payload(4*4096, 2)
		var m *msg.Message
		var err error
		if contig {
			m, _, err = msg.FromBytesContiguous(h.Kernel, data)
		} else {
			m, err = msg.FromBytes(h.Kernel, data)
		}
		if err != nil {
			b.Fatal(err)
		}
		segs, err := m.PhysSegments()
		if err != nil {
			b.Fatal(err)
		}
		e.Shutdown()
		return float64(len(segs))
	}
	b.Run("fragmenting", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = count(false)
		}
		b.ReportMetric(v, "buffers/msg")
	})
	b.Run("contiguous", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = count(true)
		}
		b.ReportMetric(v, "buffers/msg")
	})
}

// BenchmarkLossyNetwork injects cell loss end-to-end and reports the
// goodput fraction: the unreliable-network premise of §2.3, with the
// AAL5 framing checks discarding damaged PDUs before the host sees them.
func BenchmarkLossyNetwork(b *testing.B) {
	run := func(loss float64) (deliveredFrac float64) {
		opt := alOpt()
		opt.Checksum = true
		if loss > 0 {
			opt.Link.Fault = &fault.Config{Loss: fault.Bernoulli{P: loss}}
		}
		tb := core.NewTestbed(opt)
		defer tb.Shutdown()
		const n = 10
		rtt, err := tb.RunLatency(core.UDPIP, 4096, 1)
		_ = rtt
		if err != nil {
			// At high loss even the warm-up exchange can die; report 0.
			return 0
		}
		_ = n
		return 1
	}
	for _, loss := range []float64{0, 0.001, 0.01} {
		name := "loss-0"
		if loss == 0.001 {
			name = "loss-0.1%"
		} else if loss == 0.01 {
			name = "loss-1%"
		}
		b.Run(name, func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				v = run(loss)
			}
			b.ReportMetric(100*v, "ping-success-%")
		})
	}
}

// BenchmarkInterruptDiscipline quantifies the whole §2.1.2 design
// against the traditional one-interrupt-per-PDU signalling it replaced:
// receive-side throughput for small messages on the DECstation, where
// the 75 µs interrupt cost dominates.
func BenchmarkInterruptDiscipline(b *testing.B) {
	run := func(perPDU bool) float64 {
		opt := dsOpt()
		opt.Board = board.Config{InterruptPerPDU: perPDU}
		tb := core.NewTestbed(opt)
		defer tb.Shutdown()
		mbps, err := tb.RunReceiveThroughput(4096, 10)
		if err != nil {
			b.Fatal(err)
		}
		return mbps
	}
	b.Run("osiris-burst-coalesced", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(false)
		}
		b.ReportMetric(v, "sim-Mbps")
	})
	b.Run("traditional-per-pdu", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(true)
		}
		b.ReportMetric(v, "sim-Mbps")
	})
}

// BenchmarkFanInThroughput exercises the N-node generalization: eight
// clients converge on one server through the VCI-routed cell switch.
// The paced variant staggers bursts under the server's receive ceiling
// and must deliver every payload byte-for-byte intact; the overload
// variant runs all clients at full rate into one 622 Mbps egress port
// and reports the resulting switch-queue drops alongside the surviving
// goodput.
func BenchmarkFanInThroughput(b *testing.B) {
	b.Run("8-clients-paced", func(b *testing.B) {
		var res *core.FanInResult
		for i := 0; i < b.N; i++ {
			w := workload.DefaultFanIn()
			cl := core.NewCluster(core.Options{}, w.Clients+1)
			var err error
			res, err = cl.RunFanIn(w)
			cl.Shutdown()
			if err != nil {
				b.Fatal(err)
			}
			if res.Delivered != res.Sent || res.Corrupt != 0 || res.SwitchDropped != 0 {
				b.Fatalf("paced fan-in not lossless: %d/%d delivered, %d corrupt, %d drops",
					res.Delivered, res.Sent, res.Corrupt, res.SwitchDropped)
			}
		}
		b.ReportMetric(res.AggregateMbps, "sim-Mbps")
		b.ReportMetric(float64(res.Delivered), "messages")
		b.ReportMetric(res.Clients[0].Mbps, "per-client-Mbps")
	})
	b.Run("8-clients-overload", func(b *testing.B) {
		var res *core.FanInResult
		for i := 0; i < b.N; i++ {
			w := workload.DefaultFanIn()
			var err error
			res, err = core.RunFanIn(core.Options{}, w.Clients, w.MessageBytes, w.Messages)
			if err != nil {
				b.Fatal(err)
			}
			if res.SwitchDropped == 0 {
				b.Fatal("overload recorded no switch drops")
			}
			if res.Corrupt != 0 {
				b.Fatalf("overload corrupted %d deliveries", res.Corrupt)
			}
		}
		b.ReportMetric(res.AggregateMbps, "sim-Mbps")
		b.ReportMetric(float64(res.Delivered), "messages")
		b.ReportMetric(float64(res.SwitchDropped), "switch-drops")
	})
}
