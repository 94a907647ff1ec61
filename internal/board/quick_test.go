package board

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/atm"
	"repro/internal/dpm"
	"repro/internal/hostsim"
	"repro/internal/sim"
)

// Property: for any PDU size, any skew lag, and either skew-tolerant
// strategy, a PDU injected with per-link ordering preserved reassembles
// byte-exactly.
func TestReassemblyRoundTripQuick(t *testing.T) {
	f := func(sizeSeed uint16, lagSeed, linkSeed uint8, useSeqNum bool) bool {
		size := int(sizeSeed)%12000 + 1
		lag := int(lagSeed) % 6
		lagLink := int(linkSeed) % 4
		strategy := FourAAL5
		if useSeqNum {
			strategy = SeqNum
		}
		r := newRig(t, Config{Strategy: strategy})
		ch := r.b.KernelChannel()
		r.b.BindVCI(5, 0)
		data := pattern(size, byte(sizeSeed))
		var got []byte
		var ok bool
		r.eng.Go("host", func(p *sim.Proc) {
			r.supplyFree(t, p, ch, 8, 16384)
			cells := atm.Segment(5, data, 4, strategy.UsesSeqNumbers())
			injectSkewed(r, p, cells, lagLink, lag)
			got, ok = r.recvPDU(p, ch, 100*time.Millisecond)
		})
		r.eng.Run()
		r.eng.Shutdown()
		return ok && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: transmit segmentation round-trips any PDU size under any
// transmit DMA policy (reassembled functionally from the emitted cells).
func TestTransmitRoundTripQuick(t *testing.T) {
	f := func(sizeSeed uint16, policySeed uint8, chunkSeed uint8) bool {
		size := int(sizeSeed)%9000 + 1
		policy := []TxDMAPolicy{BoundaryStop, FixedCell, ArbitraryLength}[policySeed%3]
		strategy := FourAAL5
		if policy == FixedCell {
			strategy = ArrivalOrder
		}
		r := newRig(t, Config{TxPolicy: policy, Strategy: strategy})
		r.b.BindVCI(7, 0)
		var cells []atm.Cell
		r.b.SetTxSink(func(c atm.Cell, link int) { cells = append(cells, c) })
		data := pattern(size, byte(policySeed))
		// Split the message into 1-3 buffers to exercise chain handling.
		var sizes []int
		switch chunkSeed % 3 {
		case 0:
			sizes = []int{size}
		case 1:
			if size > 1 {
				sizes = []int{size / 2, size - size/2}
			} else {
				sizes = []int{size}
			}
		default:
			if size/2 > 28 { // else the middle buffer would be empty
				sizes = []int{28, size/2 - 28, size - size/2}
			} else {
				sizes = []int{size}
			}
		}
		descs := r.writePDU(t, data, sizes, 7)
		r.eng.Go("host", func(p *sim.Proc) { r.sendPDU(t, p, r.b.KernelChannel(), descs) })
		r.eng.Run()
		r.eng.Shutdown()
		_, got, err := atm.Reassemble(cells)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestArbitraryLengthPolicyMatchesBoundaryStop(t *testing.T) {
	// The "ideal solution" of §2.5.2 behaves identically for chained
	// buffers in our model — same cells, same splits avoided.
	run := func(policy TxDMAPolicy) ([]atm.Cell, Stats) {
		r := newRig(t, Config{TxPolicy: policy})
		r.b.BindVCI(7, 0)
		var cells []atm.Cell
		r.b.SetTxSink(func(c atm.Cell, link int) { cells = append(cells, c) })
		data := pattern(5000, 30)
		descs := r.writePDU(t, data, []int{28, 4972}, 7)
		r.eng.Go("host", func(p *sim.Proc) { r.sendPDU(t, p, r.b.KernelChannel(), descs) })
		r.eng.Run()
		r.eng.Shutdown()
		return cells, r.b.Stats()
	}
	c1, _ := run(BoundaryStop)
	c2, _ := run(ArbitraryLength)
	if len(c1) != len(c2) {
		t.Fatalf("cell counts differ: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		if !bytes.Equal(c1[i].Payload[:c1[i].Len], c2[i].Payload[:c2[i].Len]) {
			t.Fatalf("cell %d differs between policies", i)
		}
	}
}

func TestInterleavedVCIStreamsReassembleIndependently(t *testing.T) {
	// Fine-grained multiplexing (§2.5.1): two channels transmit
	// concurrently and the board interleaves their cells; both PDUs must
	// arrive intact because reassembly is per VCI.
	e := sim.NewEngine(4)
	hA := hostsimNew(e)
	hB := hostsimNew(e)
	bA := New(e, hA, Config{Name: "A"})
	bB := New(e, hB, Config{Name: "B"})
	g := atm.NewStripeGroup(e, 4, atm.LinkConfig{})
	links := make([]*atm.Link, 4)
	for i := range links {
		links[i] = g.Link(i)
	}
	bA.AttachTxLinks(links)
	bB.AttachRxLinks(g)
	bA.OpenChannel(1, 5, nil)
	bA.BindVCI(31, 0)
	bA.BindVCI(32, 1)
	bB.BindVCI(31, 0)
	bB.BindVCI(32, 0)

	rA := &rig{eng: e, host: hA, b: bA}
	rB := &rig{eng: e, host: hB, b: bB}
	d1 := pattern(6000, 31)
	d2 := pattern(6000, 32)
	results := map[atm.VCI][]byte{}
	e.Go("sender", func(p *sim.Proc) {
		descs1 := rA.writePDU(t, d1, []int{6000}, 31)
		descs2 := rA.writePDU(t, d2, []int{6000}, 32)
		// Queue on both channels before kicking, so the transmit
		// processor interleaves them cell by cell.
		for _, d := range descs1 {
			bA.KernelChannel().TxRing.TryPush(p, dpmHostAccessor(), d)
		}
		for _, d := range descs2 {
			bA.Channel(1).TxRing.TryPush(p, dpmHostAccessor(), d)
		}
		bA.KickTx()
	})
	e.Go("receiver", func(p *sim.Proc) {
		rB.supplyFree(t, p, bB.KernelChannel(), 8, 16384)
		for len(results) < 2 {
			deadline := p.Now().Add(100 * time.Millisecond)
			var buf []byte
			for {
				d, ok := bB.KernelChannel().RecvRing.TryPop(p, dpmHostAccessor())
				if ok {
					buf = append(buf, hB.Mem.Read(d.Addr, int(d.Len))...)
					if d.Flags&1 != 0 { // FlagEOP
						results[d.VCI] = buf
						break
					}
				} else if p.Now() >= deadline {
					return
				} else {
					p.Sleep(2 * time.Microsecond)
				}
			}
		}
	})
	e.Run()
	e.Shutdown()
	if !bytes.Equal(results[31], d1) {
		t.Error("VCI 31 stream corrupted by interleaving")
	}
	if !bytes.Equal(results[32], d2) {
		t.Error("VCI 32 stream corrupted by interleaving")
	}
}

func TestFIFOOverflowDropsCells(t *testing.T) {
	r := newRig(t, Config{RxFIFOCells: 4})
	drops := watchDrops(r.eng)
	r.b.BindVCI(5, 0)
	// Inject far more cells than the FIFO holds, instantly (event
	// context cannot drain between injections).
	cells := atm.Segment(5, pattern(2000, 40), 4, false)
	accepted := 0
	for i := range cells {
		if r.b.InjectCell(cells[i], i%4) {
			accepted++
		}
	}
	if accepted > 4 {
		t.Errorf("FIFO of 4 accepted %d cells synchronously", accepted)
	}
	if r.b.Stats().CellsDroppedFIFO == 0 {
		t.Error("no FIFO drops recorded")
	}
	r.eng.Run()
	r.eng.Shutdown()
	drops.check(t, r.b.Stats())
}

// hostsimNew builds a standard test host.
func hostsimNew(e *sim.Engine) *hostsim.Host {
	return hostsim.New(e, hostsim.DEC3000_600(), 2048)
}

// dpmHostAccessor returns the host-side accessor.
func dpmHostAccessor() dpm.Accessor { return dpm.Host }

func TestEqualPriorityChannelsInterleaveFairly(t *testing.T) {
	// Two channels at the same priority, each with a large PDU queued:
	// the transmit processor must alternate cells between them rather
	// than draining one before starting the other.
	r := newRig(t, Config{})
	r.b.OpenChannel(1, 0, nil) // same priority as the kernel channel
	r.b.BindVCI(31, 0)
	r.b.BindVCI(32, 1)
	var order []atm.VCI
	r.b.SetTxSink(func(c atm.Cell, link int) { order = append(order, c.VCI) })
	d1 := pattern(4400, 1)
	d2 := pattern(4400, 2)
	r.eng.Go("host", func(p *sim.Proc) {
		for _, d := range r.writePDU(t, d1, []int{4400}, 31) {
			r.b.KernelChannel().TxRing.TryPush(p, dpm.Host, d)
		}
		for _, d := range r.writePDU(t, d2, []int{4400}, 32) {
			r.b.Channel(1).TxRing.TryPush(p, dpm.Host, d)
		}
		r.b.KickTx()
	})
	r.eng.Run()
	r.eng.Shutdown()
	if len(order) < 100 {
		t.Fatalf("cells = %d", len(order))
	}
	// Count alternations in the first half: fair interleave means many.
	switches := 0
	for i := 1; i < len(order)/2; i++ {
		if order[i] != order[i-1] {
			switches++
		}
	}
	if switches < len(order)/4 {
		t.Errorf("only %d VCI switches in %d cells; channels not interleaving", switches, len(order)/2)
	}
}

func TestHigherPriorityChannelPreempts(t *testing.T) {
	// A high-priority ADC's PDU queued after a low-priority one must
	// still get the next cells (§3.2: "priority is used by the transmit
	// processor to determine the order of transmissions").
	r := newRig(t, Config{})
	r.b.OpenChannel(1, 9, nil)
	r.b.BindVCI(31, 0)
	r.b.BindVCI(32, 1)
	var order []atm.VCI
	r.b.SetTxSink(func(c atm.Cell, link int) { order = append(order, c.VCI) })
	r.eng.Go("host", func(p *sim.Proc) {
		for _, d := range r.writePDU(t, pattern(8800, 1), []int{8800}, 31) {
			r.b.KernelChannel().TxRing.TryPush(p, dpm.Host, d)
		}
		r.b.KickTx()
		p.Sleep(20 * time.Microsecond) // low-priority stream is under way
		for _, d := range r.writePDU(t, pattern(880, 2), []int{880}, 32) {
			r.b.Channel(1).TxRing.TryPush(p, dpm.Host, d)
		}
		r.b.KickTx()
	})
	r.eng.Run()
	r.eng.Shutdown()
	// Find where VCI 32's cells appear; they must finish well before the
	// low-priority PDU does.
	last32 := -1
	last31 := -1
	for i, v := range order {
		if v == 32 {
			last32 = i
		} else {
			last31 = i
		}
	}
	if last32 == -1 || last31 == -1 {
		t.Fatal("streams missing")
	}
	if last32 > last31 {
		t.Error("high-priority PDU finished after the low-priority one")
	}
}

func TestInterruptPerPDUAblation(t *testing.T) {
	// The traditional discipline must assert one interrupt per received
	// PDU even when arrivals form a burst.
	r := newRig(t, Config{InterruptPerPDU: true})
	ch := r.b.KernelChannel()
	r.b.BindVCI(5, 0)
	const pdus = 10
	data := pattern(1000, 10)
	r.eng.Go("feeder", func(p *sim.Proc) {
		r.supplyFree(t, p, ch, 32, 2048)
		for k := 0; k < pdus; k++ {
			cells := atm.Segment(5, data, 4, false)
			for i := range cells {
				r.b.InjectCell(cells[i], i%4)
				p.Sleep(700 * time.Nanosecond)
			}
		}
		p.Sleep(time.Millisecond)
	})
	r.eng.Run()
	r.eng.Shutdown()
	if irqs := r.b.Stats().RxIRQs; irqs != pdus {
		t.Errorf("traditional discipline asserted %d interrupts for %d PDUs", irqs, pdus)
	}
}
