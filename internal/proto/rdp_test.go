package proto

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/hostsim"
	"repro/internal/msg"
	"repro/internal/sim"
)

// newLossyStackPair builds the UDP/IP stack pair over links with the
// given cell loss rate (A→B direction only).
func newLossyStackPair(t *testing.T, loss float64, seed int64) *stackPair {
	t.Helper()
	e := sim.NewEngine(seed)
	hA := hostsim.New(e, hostsim.DEC3000_600(), 4096)
	hB := hostsim.New(e, hostsim.DEC3000_600(), 4096)
	bA := board.New(e, hA, board.Config{Name: "A"})
	bB := board.New(e, hB, board.Config{Name: "B"})
	var lc atm.LinkConfig
	if loss > 0 {
		lc.Fault = &fault.Config{Loss: fault.Bernoulli{P: loss}}
	}
	ab := atm.NewStripeGroup(e, 4, lc)
	ba := atm.NewStripeGroup(e, 4, atm.LinkConfig{})
	bA.AttachTxLinks(ab.Links())
	bB.AttachRxLinks(ab)
	bB.AttachTxLinks(ba.Links())
	bA.AttachRxLinks(ba)
	dA := driver.New(e, hA, bA, driver.Config{Cache: driver.CacheNone})
	dB := driver.New(e, hB, bB, driver.Config{Cache: driver.CacheNone})
	sp := &stackPair{eng: e, hA: hA, hB: hB, bA: bA, bB: bB, dA: dA, dB: dB}
	sp.ipA = NewIP(hA, dA, 1, 16384)
	sp.ipB = NewIP(hB, dB, 2, 16384)
	sp.udpA = NewUDP(hA, sp.ipA)
	sp.udpB = NewUDP(hB, sp.ipB)
	return sp
}

func openRDPPair(t *testing.T, sp *stackPair, vci atm.VCI, window int) (tx, rx *rdpSession, rA, rB *RDP) {
	t.Helper()
	rA = NewRDP(sp.hA, sp.ipA)
	rB = NewRDP(sp.hB, sp.ipB)
	a, err := rA.Open(RDPOpen{Remote: 2, VCI: vci, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rB.Open(RDPOpen{Remote: 1, VCI: vci, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	return a.(*rdpSession), b.(*rdpSession), rA, rB
}

func TestRDPDeliversInOrderWithoutLoss(t *testing.T) {
	sp := newLossyStackPair(t, 0, 1)
	tx, rx, rA, _ := openRDPPair(t, sp, 10, 4)
	const n = 12
	var got [][]byte
	rx.SetHandler(func(p *sim.Proc, m *msg.Message) {
		b, _ := m.Bytes()
		got = append(got, b)
	})
	sp.eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			m, _ := msg.FromBytes(sp.hA.Kernel, pattern(3000, byte(i)))
			if err := tx.Push(p, m); err != nil {
				t.Error(err)
				return
			}
		}
		tx.WaitAcked(p)
	})
	sp.eng.Run()
	sp.eng.Shutdown()
	if len(got) != n {
		t.Fatalf("delivered %d/%d", len(got), n)
	}
	for i, b := range got {
		if !bytes.Equal(b, pattern(3000, byte(i))) {
			t.Fatalf("message %d corrupted or reordered", i)
		}
	}
	if rA.Stats().Retransmits != 0 {
		t.Errorf("retransmits = %d on a clean network", rA.Stats().Retransmits)
	}
}

func TestRDPRecoversFromCellLoss(t *testing.T) {
	// 1% cell loss kills ~50% of 3 KB messages at the AAL5 layer; RDP
	// must still deliver every message, in order, intact.
	sp := newLossyStackPair(t, 0.01, 7)
	tx, rx, rA, _ := openRDPPair(t, sp, 10, 4)
	const n = 15
	var got [][]byte
	rx.SetHandler(func(p *sim.Proc, m *msg.Message) {
		b, _ := m.Bytes()
		got = append(got, b)
	})
	done := false
	sp.eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			m, _ := msg.FromBytes(sp.hA.Kernel, pattern(3000, byte(i)))
			if err := tx.Push(p, m); err != nil {
				t.Error(err)
				return
			}
		}
		tx.WaitAcked(p)
		done = true
	})
	sp.eng.RunUntil(sp.eng.Now().Add(2 * time.Second))
	sp.eng.Shutdown()
	if !done {
		t.Fatal("sender never drained its window (retransmission broken)")
	}
	if len(got) != n {
		t.Fatalf("delivered %d/%d", len(got), n)
	}
	for i, b := range got {
		if !bytes.Equal(b, pattern(3000, byte(i))) {
			t.Fatalf("message %d corrupted or reordered", i)
		}
	}
	if rA.Stats().Retransmits == 0 {
		t.Error("no retransmissions despite 1% cell loss")
	}
}

func TestRDPWindowBackpressure(t *testing.T) {
	// With acks suppressed (receiver handler installed but B's reverse
	// direction clean), a window of 2 must block the third Push until
	// the first ack returns — i.e. Push N+window occurs strictly after
	// the first round trip.
	sp := newLossyStackPair(t, 0, 2)
	tx, rx, _, _ := openRDPPair(t, sp, 10, 2)
	rx.SetHandler(func(p *sim.Proc, m *msg.Message) {})
	var pushTimes []sim.Time
	sp.eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			m, _ := msg.FromBytes(sp.hA.Kernel, pattern(1000, byte(i)))
			tx.Push(p, m)
			pushTimes = append(pushTimes, p.Now())
		}
		tx.WaitAcked(p)
	})
	sp.eng.Run()
	sp.eng.Shutdown()
	if len(pushTimes) != 4 {
		t.Fatal("pushes incomplete")
	}
	gap01 := pushTimes[1] - pushTimes[0]
	gap12 := pushTimes[2] - pushTimes[1]
	if gap12 < 5*gap01 {
		t.Errorf("third push not blocked by window: gaps %v then %v", gap01, gap12)
	}
}

func TestRDPLargeMessagesFragmentAndSurviveLoss(t *testing.T) {
	// Messages above the MTU exercise RDP over IP fragmentation over a
	// lossy network: three layers of the stack cooperating.
	sp := newLossyStackPair(t, 0.004, 9)
	tx, rx, _, _ := openRDPPair(t, sp, 10, 3)
	const n = 6
	data := pattern(40_000, 5)
	delivered := 0
	rx.SetHandler(func(p *sim.Proc, m *msg.Message) {
		b, _ := m.Bytes()
		if bytes.Equal(b, data) {
			delivered++
		} else {
			t.Error("corrupt delivery")
		}
	})
	done := false
	sp.eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			m, _ := msg.FromBytes(sp.hA.Kernel, data)
			tx.Push(p, m)
		}
		tx.WaitAcked(p)
		done = true
	})
	sp.eng.RunUntil(sp.eng.Now().Add(3 * time.Second))
	sp.eng.Shutdown()
	if !done || delivered != n {
		t.Fatalf("done=%v delivered=%d/%d", done, delivered, n)
	}
}

func TestRDPDeterministicUnderLoss(t *testing.T) {
	run := func() (int64, int64) {
		sp := newLossyStackPair(t, 0.01, 42)
		tx, rx, rA, _ := openRDPPair(t, sp, 10, 4)
		rx.SetHandler(func(p *sim.Proc, m *msg.Message) {})
		sp.eng.Go("sender", func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				m, _ := msg.FromBytes(sp.hA.Kernel, pattern(2000, byte(i)))
				tx.Push(p, m)
			}
			tx.WaitAcked(p)
		})
		sp.eng.RunUntil(sp.eng.Now().Add(time.Second))
		sp.eng.Shutdown()
		return rA.Stats().Retransmits, rA.Stats().Timeouts
	}
	r1, t1 := run()
	r2, t2 := run()
	if r1 != r2 || t1 != t2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", r1, t1, r2, t2)
	}
}

// TestRDPStagingEchoesECEOnce: segments are staged in one buffer per
// session, so a header flag set for one segment must not leak into the
// next. The receiver owes one ECE echo; with one segment in flight at a
// time, each later ack starts a new window, and any stale echo on it
// would cost the sender another backoff.
func TestRDPStagingEchoesECEOnce(t *testing.T) {
	sp := newLossyStackPair(t, 0, 1)
	rA, rB := NewRDP(sp.hA, sp.ipA), NewRDP(sp.hB, sp.ipB)
	a, err := rA.Open(RDPOpen{Remote: 2, VCI: 12, Window: 4, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rB.Open(RDPOpen{Remote: 1, VCI: 12, Window: 4, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	tx, rx := a.(*rdpSession), b.(*rdpSession)
	delivered := 0
	rx.SetHandler(func(p *sim.Proc, m *msg.Message) { delivered++ })
	rx.pendingECE = true
	const n = 6
	sp.eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			m, _ := msg.FromBytes(sp.hA.Kernel, pattern(3000, byte(i)))
			if err := tx.Push(p, m); err != nil {
				t.Error(err)
				return
			}
			tx.WaitAcked(p)
		}
	})
	sp.eng.Run()
	sp.eng.Shutdown()
	if delivered != n {
		t.Fatalf("delivered %d/%d", delivered, n)
	}
	if got := rB.Stats().EcnEchoed; got != 1 {
		t.Errorf("receiver echoed ECE %d times, want 1", got)
	}
	if got := rA.Stats().EcnBackoffs; got != 1 {
		t.Errorf("sender backed off %d times, want 1", got)
	}
}
