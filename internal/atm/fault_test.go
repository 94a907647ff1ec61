package atm

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// sendCells pushes n full cells with increasing Seq through l.
func sendCells(e *sim.Engine, l *Link, n int) {
	e.Go("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			l.Send(p, Cell{Seq: uint32(i), Len: CellPayload})
		}
	})
}

func TestLinkCorruptionFlipsOneBit(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, LinkConfig{Fault: &fault.Config{CorruptProb: 1}, FaultSite: "t"})
	var got []Cell
	l.SetReceiver(func(c Cell, _ int) { got = append(got, c) })
	e.Go("tx", func(p *sim.Proc) {
		l.Send(p, Cell{Len: CellPayload}) // all-zero payload
	})
	e.Run()
	e.Shutdown()
	if len(got) != 1 {
		t.Fatalf("delivered %d cells", len(got))
	}
	ones := 0
	for _, b := range got[0].Payload {
		for ; b != 0; b &= b - 1 {
			ones++
		}
	}
	if ones != 1 {
		t.Errorf("corruption flipped %d bits, want exactly 1", ones)
	}
	if l.Injector().Stats().Corrupted != 1 {
		t.Errorf("injector stats: %+v", l.Injector().Stats())
	}
}

func TestLinkDuplication(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, LinkConfig{Fault: &fault.Config{DupProb: 1}, FaultSite: "t"})
	n := 0
	l.SetReceiver(func(c Cell, _ int) { n++ })
	sendCells(e, l, 10)
	e.Run()
	e.Shutdown()
	st := l.Stats()
	if n != 20 || st.Delivered != 20 || st.Duplicated != 10 {
		t.Errorf("dup delivery: n=%d stats=%+v", n, st)
	}
	if st.Sent+st.Duplicated != st.Delivered+st.Lost {
		t.Errorf("stats don't balance: %+v", st)
	}
}

func TestLinkFaultDeterministicForFixedSeed(t *testing.T) {
	run := func() ([]uint32, LinkStats, fault.Stats) {
		e := sim.NewEngine(1234)
		l := NewLink(e, LinkConfig{Fault: &fault.Config{
			Loss:        fault.BurstLoss(0.05, 4),
			CorruptProb: 0.01,
			DupProb:     0.01,
		}, FaultSite: "t"})
		var seqs []uint32
		l.SetReceiver(func(c Cell, _ int) { seqs = append(seqs, c.Seq) })
		sendCells(e, l, 500)
		e.Run()
		e.Shutdown()
		return seqs, l.Stats(), l.Injector().Stats()
	}
	q1, s1, f1 := run()
	q2, s2, f2 := run()
	if s1 != s2 || f1 != f2 {
		t.Fatalf("stats not deterministic:\n%+v %+v\n%+v %+v", s1, f1, s2, f2)
	}
	if len(q1) != len(q2) {
		t.Fatalf("delivery counts differ: %d vs %d", len(q1), len(q2))
	}
	for i := range q1 {
		if q1[i] != q2[i] {
			t.Fatalf("delivery order diverges at %d", i)
		}
	}
}
