package board

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/fault"
	"repro/internal/hostsim"
	"repro/internal/sim"
)

// lossPair builds two hosts with a lossy A→B stripe group.
func lossPair(t *testing.T, lossRate float64, strategy ReassemblyStrategy, seed int64) (*rig, *rig) {
	t.Helper()
	e := sim.NewEngine(seed)
	hA := hostsim.New(e, hostsim.DEC3000_600(), 2048)
	hB := hostsim.New(e, hostsim.DEC3000_600(), 2048)
	bA := New(e, hA, Config{Name: "A", Strategy: strategy})
	bB := New(e, hB, Config{Name: "B", Strategy: strategy})
	var lc atm.LinkConfig
	if lossRate > 0 {
		lc.Fault = &fault.Config{Loss: fault.Bernoulli{P: lossRate}}
	}
	ab := atm.NewStripeGroup(e, 4, lc)
	links := make([]*atm.Link, 4)
	for i := range links {
		links[i] = ab.Link(i)
	}
	bA.AttachTxLinks(links)
	bB.AttachRxLinks(ab)
	bA.BindVCI(5, 0)
	bB.BindVCI(5, 0)
	return &rig{eng: e, host: hA, b: bA}, &rig{eng: e, host: hB, b: bB}
}

func TestLossyLinkDropsPDUsButNeverCorrupts(t *testing.T) {
	// With 1% cell loss, a multi-cell PDU has a substantial chance of
	// losing a cell. The board must detect the shortfall via the AAL5
	// framing bits and discard — never deliver a PDU with wrong bytes.
	rA, rB := lossPair(t, 0.01, FourAAL5, 77)
	drops := watchDrops(rB.eng)
	const n = 20
	data := pattern(4000, 1)
	delivered, intact := 0, 0
	rA.eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			descs := rA.writePDU(t, data, []int{4000}, 5)
			rA.sendPDU(t, p, rA.b.KernelChannel(), descs)
			p.Sleep(200 * time.Microsecond)
		}
	})
	rA.eng.Go("receiver", func(p *sim.Proc) {
		rB.supplyFree(t, p, rB.b.KernelChannel(), 16, 16384)
		for {
			got, ok := rB.recvPDU(p, rB.b.KernelChannel(), 2*time.Millisecond)
			if !ok {
				return
			}
			delivered++
			if bytes.Equal(got, data) {
				intact++
			}
		}
	})
	rA.eng.Run()
	rA.eng.Shutdown()

	dropped := rB.b.Stats().PDUsDropped
	if delivered+int(dropped) == 0 {
		t.Fatal("nothing happened")
	}
	if dropped == 0 {
		t.Error("1% loss over 20 PDUs × 92 cells dropped nothing; loss injection broken")
	}
	if intact != delivered {
		t.Errorf("%d of %d delivered PDUs were corrupt; loss must never corrupt under FourAAL5", delivered-intact, delivered)
	}
	if delivered == 0 {
		t.Error("every PDU dropped at 1% loss; error detection too eager")
	}
	drops.check(t, rB.b.Stats())
}

func TestLossRecoveryAcrossPDUs(t *testing.T) {
	// After a loss-dropped PDU, subsequent PDUs on the same VCI must
	// flow normally (the reassembly state must reset cleanly).
	rA, rB := lossPair(t, 0, FourAAL5, 3)
	data := pattern(2000, 2)
	var got [][]byte
	rA.eng.Go("experiment", func(p *sim.Proc) {
		rB.supplyFree(t, p, rB.b.KernelChannel(), 8, 16384)
		// Simulate a loss by injecting a PDU missing two mid cells.
		cells := atm.Segment(5, data, 4, false)
		for i := range cells {
			if i == 10 || i == 17 {
				continue // lost in the network
			}
			rB.b.InjectCell(cells[i], i%4)
			p.Sleep(700 * time.Nanosecond)
		}
		if _, ok := rB.recvPDU(p, rB.b.KernelChannel(), 2*time.Millisecond); ok {
			t.Error("PDU with lost cells was delivered")
		}
		// Now a clean PDU on the same VCI.
		cells = atm.Segment(5, data, 4, false)
		for i := range cells {
			rB.b.InjectCell(cells[i], i%4)
			p.Sleep(700 * time.Nanosecond)
		}
		if b, ok := rB.recvPDU(p, rB.b.KernelChannel(), 10*time.Millisecond); ok {
			got = append(got, b)
		}
	})
	rA.eng.Run()
	rA.eng.Shutdown()
	if len(got) != 1 || !bytes.Equal(got[0], data) {
		t.Fatal("clean PDU after a lossy one was not delivered intact")
	}
	if rB.b.Stats().PDUsDropped != 1 {
		t.Errorf("PDUsDropped = %d, want 1", rB.b.Stats().PDUsDropped)
	}
}

func TestLinkLossStatsCounted(t *testing.T) {
	e := sim.NewEngine(9)
	l := atm.NewLink(e, atm.LinkConfig{Fault: &fault.Config{Loss: fault.Bernoulli{P: 0.5}}})
	delivered := 0
	l.SetReceiver(func(atm.Cell, int) { delivered++ })
	e.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			l.Send(p, atm.Cell{Len: atm.CellPayload})
		}
	})
	e.Run()
	e.Shutdown()
	s := l.Stats()
	if s.Lost == 0 || s.Delivered == 0 {
		t.Fatalf("stats = %+v; want both losses and deliveries at 50%%", s)
	}
	if s.Lost+s.Delivered != s.Sent {
		t.Errorf("lost %d + delivered %d != sent %d", s.Lost, s.Delivered, s.Sent)
	}
	if delivered != int(s.Delivered) {
		t.Errorf("callback count %d != stats %d", delivered, s.Delivered)
	}
}
