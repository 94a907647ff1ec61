package driver

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/hostsim"
	"repro/internal/msg"
	"repro/internal/sim"
)

// pair is a two-host testbed: A transmits to B over striped links.
type pair struct {
	eng    *sim.Engine
	hA, hB *hostsim.Host
	bA, bB *board.Board
	dA, dB *Driver
}

func newPair(t *testing.T, prof func() hostsim.Profile, bcfg board.Config, dcfg Config) *pair {
	t.Helper()
	e := sim.NewEngine(1)
	hA := hostsim.New(e, prof(), 4096)
	hB := hostsim.New(e, prof(), 4096)
	ca, cb := bcfg, bcfg
	ca.Name, cb.Name = "A", "B"
	bA := board.New(e, hA, ca)
	bB := board.New(e, hB, cb)
	ab := atm.NewStripeGroup(e, 4, atm.LinkConfig{})
	ba := atm.NewStripeGroup(e, 4, atm.LinkConfig{})
	bA.AttachTxLinks(ab.Links())
	bB.AttachRxLinks(ab)
	bB.AttachTxLinks(ba.Links())
	bA.AttachRxLinks(ba)
	dA := New(e, hA, bA, dcfg)
	dB := New(e, hB, bB, dcfg)
	return &pair{eng: e, hA: hA, hB: hB, bA: bA, bB: bB, dA: dA, dB: dB}
}

// completionFunc adapts a function to a Completion.
type completionFunc func(p *sim.Proc)

func (f completionFunc) TxDone(p *sim.Proc) { f(p) }

func pattern(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i)*5 + seed
	}
	return out
}

func TestSendReceiveOnePDU(t *testing.T) {
	pr := newPair(t, hostsim.DEC3000_600, board.Config{}, Config{Cache: CacheNone})
	var got []byte
	pr.dB.OpenPath(10, func(p *sim.Proc, m *msg.Message) {
		b, err := m.Bytes()
		if err != nil {
			t.Error(err)
		}
		got = b
	})
	ptA := pr.dA.OpenPath(10, nil)
	data := pattern(3000, 1)
	pr.eng.Go("sender", func(p *sim.Proc) {
		m, err := msg.FromBytes(pr.hA.Kernel, data)
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.dA.Send(p, ptA, m, nil); err != nil {
			t.Error(err)
		}
		pr.dA.Flush(p)
	})
	pr.eng.Run()
	pr.eng.Shutdown()
	if !bytes.Equal(got, data) {
		t.Fatalf("got %d bytes, want %d intact", len(got), len(data))
	}
	if pr.dA.Stats().TxPDUs != 1 || pr.dB.Stats().RxPDUs != 1 {
		t.Errorf("stats: tx=%+v rx=%+v", pr.dA.Stats(), pr.dB.Stats())
	}
}

func TestPingPongManyMessages(t *testing.T) {
	pr := newPair(t, hostsim.DEC3000_600, board.Config{}, Config{Cache: CacheNone})
	const rounds = 10
	done := sim.NewCond(pr.eng)
	var count int
	// B echoes back on its own path.
	var ptB *Path
	pr.dB.OpenPath(10, func(p *sim.Proc, m *msg.Message) {
		data, _ := m.Bytes()
		reply, err := msg.FromBytes(pr.hB.Kernel, data)
		if err != nil {
			t.Error(err)
			return
		}
		pr.dB.Send(p, ptB, reply, nil)
	})
	ptB = pr.dB.OpenPath(11, nil)
	var ptA *Path
	var rtts []time.Duration
	pr.eng.Go("pinger", func(p *sim.Proc) {
		data := pattern(1024, 2)
		replied := sim.NewCond(pr.eng)
		gotReply := false
		pr.dA.OpenPath(11, func(hp *sim.Proc, m *msg.Message) {
			b, _ := m.Bytes()
			if !bytes.Equal(b, data) {
				t.Error("echo corrupted")
			}
			gotReply = true
			replied.Broadcast()
		})
		ptA = pr.dA.OpenPath(10, nil)
		for i := 0; i < rounds; i++ {
			start := p.Now()
			m, err := msg.FromBytes(pr.hA.Kernel, data)
			if err != nil {
				t.Fatal(err)
			}
			gotReply = false
			if err := pr.dA.Send(p, ptA, m, nil); err != nil {
				t.Fatal(err)
			}
			for !gotReply {
				replied.Wait(p)
			}
			rtts = append(rtts, time.Duration(p.Now()-start))
			count++
		}
		done.Broadcast()
	})
	pr.eng.Run()
	pr.eng.Shutdown()
	if count != rounds {
		t.Fatalf("completed %d rounds", count)
	}
	// Steady-state RTTs must be identical (deterministic sim) and sane.
	for _, rtt := range rtts[1:] {
		if rtt <= 0 || rtt > 5*time.Millisecond {
			t.Errorf("suspicious RTT %v", rtt)
		}
	}
}

func TestTransmitCompletionUnwiresPages(t *testing.T) {
	pr := newPair(t, hostsim.DEC3000_600, board.Config{}, Config{Cache: CacheNone})
	pr.dB.OpenPath(10, func(p *sim.Proc, m *msg.Message) {})
	ptA := pr.dA.OpenPath(10, nil)
	data := pattern(8192, 3)
	completed := false
	pr.eng.Go("sender", func(p *sim.Proc) {
		m, _ := msg.FromBytes(pr.hA.Kernel, data)
		frag := m.Fragments()[0]
		fr, _ := frag.Space.Mapped(frag.Space.VPN(frag.VA))
		pr.dA.Send(p, ptA, m, completionFunc(func(p *sim.Proc) { completed = true }))
		if !pr.hA.Mem.Wired(fr) {
			t.Error("pages not wired during transmit")
		}
		pr.dA.Flush(p)
		if pr.hA.Mem.Wired(fr) {
			t.Error("pages still wired after completion")
		}
	})
	pr.eng.Run()
	pr.eng.Shutdown()
	if !completed {
		t.Error("completion callback never ran")
	}
}

func TestMultiBufferPDUCounts(t *testing.T) {
	// A fragmented message (header + scattered body pages) must produce
	// one descriptor per physical buffer (§2.2).
	pr := newPair(t, hostsim.DEC3000_600, board.Config{}, Config{Cache: CacheNone})
	var got []byte
	pr.dB.OpenPath(10, func(p *sim.Proc, m *msg.Message) { got, _ = m.Bytes() })
	ptA := pr.dA.OpenPath(10, nil)
	data := pattern(3*4096, 4)
	pr.eng.Go("sender", func(p *sim.Proc) {
		body, _ := msg.FromBytes(pr.hA.Kernel, data[28:])
		hdrVA, _ := pr.hA.Kernel.Alloc(28)
		pr.hA.Kernel.WriteVirt(hdrVA, data[:28])
		m := new(msg.Message).SetPrepend(msg.Fragment{Space: pr.hA.Kernel, VA: hdrVA, Len: 28}, body)
		segs, _ := m.PhysSegments()
		if len(segs) < 3 {
			t.Errorf("segments = %d, want several (scattered pages)", len(segs))
		}
		pr.dA.Send(p, ptA, m, nil)
		pr.dA.Flush(p)
		if pr.dA.Stats().TxBuffers != int64(len(segs)) {
			t.Errorf("TxBuffers = %d, want %d", pr.dA.Stats().TxBuffers, len(segs))
		}
	})
	pr.eng.Run()
	pr.eng.Shutdown()
	if !bytes.Equal(got, data) {
		t.Error("fragmented PDU corrupted")
	}
}

func TestBackToBackThroughputReachesLinkRegion(t *testing.T) {
	// Blast PDUs; the achieved rate must be in a plausible band (above
	// 100 Mbps, below the 515 Mbps link payload bandwidth).
	pr := newPair(t, hostsim.DEC3000_600, board.Config{}, Config{Cache: CacheNone})
	received := 0
	var lastArrival sim.Time
	pr.dB.OpenPath(10, func(p *sim.Proc, m *msg.Message) {
		received++
		lastArrival = p.Now()
	})
	ptA := pr.dA.OpenPath(10, nil)
	const n = 12
	const size = 16384
	data := pattern(size, 5)
	pr.eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			m, err := msg.FromBytes(pr.hA.Kernel, data)
			if err != nil {
				t.Fatal(err)
			}
			va := m.Fragments()[0].VA
			sp := m.Fragments()[0].Space
			if err := pr.dA.Send(p, ptA, m, completionFunc(func(p *sim.Proc) { sp.Free(va, size) })); err != nil {
				t.Fatal(err)
			}
		}
		pr.dA.Flush(p)
	})
	pr.eng.Run()
	pr.eng.Shutdown()
	if received != n {
		t.Fatalf("received %d/%d", received, n)
	}
	mbps := float64(n*size*8) / lastArrival.Seconds() / 1e6
	if mbps < 100 || mbps > 516 {
		t.Errorf("throughput %.1f Mbps outside plausible band", mbps)
	}
}

func TestLazyCachePolicyAvoidsInvalidationCost(t *testing.T) {
	// On the DECstation profile, eager invalidation must make per-PDU
	// receive latency measurably higher than lazy (≈164 µs for a 16 KB
	// PDU at one cycle per word, §2.3). PDUs are paced well apart so the
	// comparison is not confounded by queueing.
	run := func(policy CachePolicy) time.Duration {
		pr := newPair(t, hostsim.DEC5000_200, board.Config{}, Config{Cache: policy})
		var total time.Duration
		received := 0
		var sentAt sim.Time
		pr.dB.OpenPath(10, func(p *sim.Proc, m *msg.Message) {
			received++
			total += time.Duration(p.Now() - sentAt)
		})
		ptA := pr.dA.OpenPath(10, nil)
		data := pattern(16384, 6)
		pr.eng.Go("sender", func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				m, _ := msg.FromBytes(pr.hA.Kernel, data)
				sentAt = p.Now()
				pr.dA.Send(p, ptA, m, nil)
				pr.dA.Flush(p)
				p.Sleep(2 * time.Millisecond)
			}
		})
		pr.eng.Run()
		pr.eng.Shutdown()
		if received != 5 {
			t.Fatalf("received %d", received)
		}
		return total / 5
	}
	lazy := run(CacheLazy)
	eager := run(CacheEager)
	if eager <= lazy {
		t.Errorf("eager (%v) not slower than lazy (%v)", eager, lazy)
	}
	// The delta should be in the vicinity of the 4096-word invalidation.
	if delta := eager - lazy; delta < 100*time.Microsecond {
		t.Errorf("eager-lazy delta %v implausibly small", delta)
	}
}

func TestRecoverDataInvalidatesAndEnablesFreshRead(t *testing.T) {
	pr := newPair(t, hostsim.DEC5000_200, board.Config{}, Config{Cache: CacheLazy})
	var sawStale, sawFresh bool
	data := pattern(2048, 7)
	pr.dB.OpenPath(10, func(p *sim.Proc, m *msg.Message) {
		segs, _ := m.PhysSegments()
		// Force staleness: pre-read the buffer region through the cache
		// before this PDU's bytes "arrived"... too late here; instead
		// check that RecoverData invalidates whatever is cached.
		first := pr.hB.CPUReadData(p, segs)
		if !pr.dB.RecoverData(p, m) {
			t.Error("RecoverData refused under lazy policy")
		}
		second := pr.hB.CPUReadData(p, segs)
		sawStale = !bytes.Equal(first, data)
		sawFresh = bytes.Equal(second, data)
	})
	ptA := pr.dA.OpenPath(10, nil)
	pr.eng.Go("sender", func(p *sim.Proc) {
		m, _ := msg.FromBytes(pr.hA.Kernel, data)
		pr.dA.Send(p, ptA, m, nil)
		pr.dA.Flush(p)
	})
	pr.eng.Run()
	pr.eng.Shutdown()
	if !sawFresh {
		t.Error("post-recovery read still wrong")
	}
	_ = sawStale // staleness on first read is possible but not guaranteed
	if pr.dB.Stats().Recoveries != 1 {
		t.Errorf("Recoveries = %d", pr.dB.Stats().Recoveries)
	}
}

func TestRecoverDataRefusedWhenNotLazy(t *testing.T) {
	pr := newPair(t, hostsim.DEC3000_600, board.Config{}, Config{Cache: CacheNone})
	pr.eng.Go("x", func(p *sim.Proc) {
		m, _ := msg.FromBytes(pr.hB.Kernel, pattern(100, 8))
		if pr.dB.RecoverData(p, m) {
			t.Error("RecoverData succeeded under CacheNone")
		}
	})
	pr.eng.Run()
	pr.eng.Shutdown()
}

func TestInterruptsPerBurstBelowOnePerPDU(t *testing.T) {
	// §2.1.2: when PDUs arrive while the host is still busy with earlier
	// ones, the receive queue never drains and no further interrupts are
	// asserted — far fewer than one per PDU. The receiving application
	// here spends 300 µs per message, so arrivals (every ~55 µs) pile up.
	pr := newPair(t, hostsim.DEC3000_600, board.Config{}, Config{Cache: CacheNone})
	received := 0
	pr.dB.OpenPath(10, func(p *sim.Proc, m *msg.Message) {
		received++
		pr.hB.Compute(p, 300*time.Microsecond) // slow application
	})
	ptA := pr.dA.OpenPath(10, nil)
	const n = 30
	data := pattern(2048, 9)
	pr.eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			m, _ := msg.FromBytes(pr.hA.Kernel, data)
			va, sp := m.Fragments()[0].VA, m.Fragments()[0].Space
			pr.dA.Send(p, ptA, m, completionFunc(func(p *sim.Proc) { sp.Free(va, 2048) }))
		}
		pr.dA.Flush(p)
	})
	pr.eng.Run()
	pr.eng.Shutdown()
	if received != n {
		t.Fatalf("received %d/%d", received, n)
	}
	irqs := pr.hB.Int.Count(board.RxIRQBase)
	if irqs >= n/2 {
		t.Errorf("receive interrupts = %d for %d PDUs; want far fewer", irqs, n)
	}
	if irqs == 0 {
		t.Error("no interrupts at all?")
	}
}

func TestTxStallAndNotifyProtocol(t *testing.T) {
	// Queue far more PDUs than the transmit ring holds with a slow
	// consumer; the driver must stall on the full ring, use the notify
	// protocol, and still deliver everything.
	pr := newPair(t, hostsim.DEC3000_600, board.Config{TxRingSlots: 8}, Config{Cache: CacheNone})
	received := 0
	pr.dB.OpenPath(10, func(p *sim.Proc, m *msg.Message) { received++ })
	ptA := pr.dA.OpenPath(10, nil)
	const n = 40
	data := pattern(2048, 10)
	pr.eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			m, _ := msg.FromBytes(pr.hA.Kernel, data)
			va, sp := m.Fragments()[0].VA, m.Fragments()[0].Space
			pr.dA.Send(p, ptA, m, completionFunc(func(p *sim.Proc) { sp.Free(va, 2048) }))
		}
		pr.dA.Flush(p)
	})
	pr.eng.Run()
	pr.eng.Shutdown()
	if received != n {
		t.Fatalf("received %d/%d", received, n)
	}
	if pr.dA.Stats().TxStalls == 0 {
		t.Error("no tx stalls despite tiny ring")
	}
}

func TestPagedRxBufsIncreaseDescriptors(t *testing.T) {
	// §2.2 receive side: page-sized receive buffers fragment every PDU
	// larger than a page.
	run := func(paged bool) int64 {
		pr := newPair(t, hostsim.DEC3000_600, board.Config{}, Config{Cache: CacheNone, PagedRxBufs: paged})
		got := 0
		pr.dB.OpenPath(10, func(p *sim.Proc, m *msg.Message) { got++ })
		ptA := pr.dA.OpenPath(10, nil)
		data := pattern(16000, 11)
		pr.eng.Go("sender", func(p *sim.Proc) {
			m, _ := msg.FromBytes(pr.hA.Kernel, data)
			pr.dA.Send(p, ptA, m, nil)
			pr.dA.Flush(p)
		})
		pr.eng.Run()
		pr.eng.Shutdown()
		if got != 1 {
			t.Fatalf("paged=%v received %d", paged, got)
		}
		return pr.dB.Stats().RxBuffers
	}
	whole := run(false)
	paged := run(true)
	if whole != 1 {
		t.Errorf("16KB buffers: RxBuffers = %d, want 1", whole)
	}
	if paged != 4 {
		t.Errorf("page buffers: RxBuffers = %d, want 4", paged)
	}
}

func TestCachePolicyString(t *testing.T) {
	if CacheEager.String() != "eager" || CacheLazy.String() != "lazy" || CacheNone.String() != "none" {
		t.Error("CachePolicy strings wrong")
	}
}
