package atm

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestCellTime(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, LinkConfig{})
	// 53 bytes × 8 bits / 155 Mbps ≈ 2735 ns.
	want := time.Duration(53 * 8 * int64(time.Second) / 155_000_000)
	if l.CellTime() != want {
		t.Errorf("CellTime = %v, want %v", l.CellTime(), want)
	}
	e.Shutdown()
}

func TestLinkDeliversInOrder(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, LinkConfig{})
	var got []uint32
	l.SetReceiver(func(c Cell, _ int) { got = append(got, c.Seq) })
	e.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			l.Send(p, Cell{Seq: uint32(i), Len: CellPayload})
		}
	})
	e.Run()
	e.Shutdown()
	if len(got) != 20 {
		t.Fatalf("delivered %d cells, want 20", len(got))
	}
	for i, s := range got {
		if s != uint32(i) {
			t.Fatalf("delivery order %v", got)
		}
	}
}

func TestLinkPacesAtLineRate(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, LinkConfig{PropDelay: time.Microsecond})
	var last sim.Time
	n := 0
	l.SetReceiver(func(c Cell, _ int) { last = e.Now(); n++ })
	const cells = 100
	e.Go("tx", func(p *sim.Proc) {
		for i := 0; i < cells; i++ {
			l.Send(p, Cell{Len: CellPayload})
		}
	})
	e.Run()
	e.Shutdown()
	if n != cells {
		t.Fatalf("delivered %d", n)
	}
	// Total time ≈ cells × cellTime + propDelay.
	want := time.Duration(cells)*l.CellTime() + time.Microsecond
	got := time.Duration(last)
	if got < want || got > want+time.Duration(cells)*2 {
		t.Errorf("last delivery at %v, want ≈ %v", got, want)
	}
}

func TestQueueingSkewPreservesPerLinkOrder(t *testing.T) {
	e := sim.NewEngine(7)
	l := NewLink(e, LinkConfig{Skew: QueueingSkew{Max: 50 * time.Microsecond}})
	var got []uint32
	l.SetReceiver(func(c Cell, _ int) { got = append(got, c.Seq) })
	e.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			l.Send(p, Cell{Seq: uint32(i), Len: CellPayload})
		}
	})
	e.Run()
	e.Shutdown()
	for i, s := range got {
		if s != uint32(i) {
			t.Fatalf("per-link order violated: %v", got)
		}
	}
}

func TestConstantSkewDelaysOneLink(t *testing.T) {
	e := sim.NewEngine(1)
	skew := ConstantSkew{PerLink: []time.Duration{0, 100 * time.Microsecond}}
	l0 := NewLink(e, LinkConfig{Index: 0, Skew: skew})
	l1 := NewLink(e, LinkConfig{Index: 1, Skew: skew})
	var order []int
	rx := func(c Cell, link int) { order = append(order, link) }
	l0.SetReceiver(rx)
	l1.SetReceiver(rx)
	e.Go("tx", func(p *sim.Proc) {
		l1.Send(p, Cell{Len: CellPayload}) // sent first, but delayed link
		l0.Send(p, Cell{Len: CellPayload})
	})
	e.Run()
	e.Shutdown()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Errorf("arrival order = %v, want [0 1] (skewed link arrives later)", order)
	}
}

func TestStripeGroupRoundRobin(t *testing.T) {
	e := sim.NewEngine(1)
	g := NewStripeGroup(e, 4, LinkConfig{})
	counts := make(map[int]int)
	g.SetReceiver(func(c Cell, link int) { counts[link]++ })
	e.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 12; i++ {
			g.Send(p, Cell{Seq: uint32(i), Len: CellPayload})
		}
	})
	e.Run()
	e.Shutdown()
	for link := 0; link < 4; link++ {
		if counts[link] != 3 {
			t.Errorf("link %d carried %d cells, want 3", link, counts[link])
		}
	}
}

func TestStripedThroughputApproachesAggregate(t *testing.T) {
	// Blast cells over a 4-wide stripe; payload throughput must approach
	// 4 links' worth, i.e. ~4x one link.
	e := sim.NewEngine(1)
	g := NewStripeGroup(e, 4, LinkConfig{})
	n := 0
	g.SetReceiver(func(c Cell, _ int) { n++ })
	const cells = 4000
	e.Go("tx", func(p *sim.Proc) {
		for i := 0; i < cells; i++ {
			g.Send(p, Cell{Len: CellPayload})
		}
	})
	end := e.Run()
	e.Shutdown()
	mbps := float64(n*CellPayload*8) / end.Seconds() / 1e6
	// 4 × 155 × 44/53 ≈ 514.7 Mbps — the paper rounds to 516 (§2.5.1).
	want := 4 * float64(g.links[0].cfg.RateBps) * CellPayload / CellSize / 1e6
	if mbps < want*0.98 || mbps > want*1.02 {
		t.Errorf("striped throughput %f Mbps, want ≈ %f", mbps, want)
	}
}

func TestLinkStats(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, LinkConfig{})
	l.SetReceiver(func(Cell, int) {})
	e.Go("tx", func(p *sim.Proc) {
		l.Send(p, Cell{Len: CellPayload})
		l.Send(p, Cell{Len: CellPayload})
	})
	e.Run()
	e.Shutdown()
	s := l.Stats()
	if s.Sent != 2 || s.Delivered != 2 {
		t.Errorf("stats = %+v", s)
	}
}

// A link with no receiver delivers into nothing, and each cell's
// record goes back to the engine's cell store.
func TestLinkWithoutReceiverPutsRecordsBack(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	l := NewLink(e, LinkConfig{})
	e.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			l.Send(p, Cell{Len: CellPayload})
		}
	})
	e.Run()
	if s := l.Stats(); s.Delivered != 20 {
		t.Errorf("stats = %+v, want 20 delivered", s)
	}
	if err := e.CheckPools(); err != nil {
		t.Error(err)
	}
}

func TestSkewModels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	draws := 0
	src := func() *rand.Rand { draws++; return rng }
	if (NoSkew{}).Delay(0, src) != 0 {
		t.Error("NoSkew delayed")
	}
	cs := ConstantSkew{PerLink: []time.Duration{5}}
	if cs.Delay(0, src) != 5 || cs.Delay(7, src) != 0 {
		t.Error("ConstantSkew wrong")
	}
	if (QueueingSkew{}).Delay(0, src) != 0 {
		t.Error("zero-max QueueingSkew delayed")
	}
	if draws != 0 {
		t.Errorf("models that never draw asked for the stream %d times", draws)
	}
	qs := QueueingSkew{Max: 100}
	for i := 0; i < 50; i++ {
		d := qs.Delay(0, src)
		if d < 0 || d > 100 {
			t.Fatalf("QueueingSkew out of range: %v", d)
		}
	}
}

func TestLinkStatsStableAfterShutdown(t *testing.T) {
	// Satellite of the snapshot-discipline doc: after Shutdown the
	// counters are final — repeated reads agree and account for every
	// cell (Sent == Delivered + Lost with no loss model).
	e := sim.NewEngine(1)
	g := NewStripeGroup(e, 4, LinkConfig{})
	g.SetReceiver(func(Cell, int) {})
	e.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			g.Send(p, Cell{Len: CellPayload})
		}
	})
	e.Run()
	e.Shutdown()
	s1 := g.Stats()
	s2 := g.Stats()
	if s1 != s2 {
		t.Errorf("post-Shutdown snapshots differ: %+v vs %+v", s1, s2)
	}
	if s1.Sent != 40 || s1.Delivered+s1.Lost != s1.Sent {
		t.Errorf("final stats don't balance: %+v", s1)
	}
	for i, l := range g.Links() {
		ls := l.Stats()
		if ls.Sent != 10 {
			t.Errorf("link %d Sent = %d, want 10", i, ls.Sent)
		}
	}
}

// TestLinksTieInConstructionOrder: deliveries from different links that
// fall on the same instant, and were accepted at the same instant, run
// in the order the links were built, whatever order they were sent in.
func TestLinksTieInConstructionOrder(t *testing.T) {
	e := sim.NewEngine(1)
	l0 := NewLink(e, LinkConfig{Index: 0})
	l1 := NewLink(e, LinkConfig{Index: 1})
	var order []int
	var at []sim.Time
	rx := func(c Cell, link int) {
		order = append(order, link)
		at = append(at, e.Now())
	}
	l0.SetReceiver(rx)
	l1.SetReceiver(rx)
	e.Go("tx", func(p *sim.Proc) {
		l1.Send(p, Cell{Len: CellPayload})
		l0.Send(p, Cell{Len: CellPayload})
	})
	e.Run()
	e.Shutdown()
	if len(order) != 2 || at[0] != at[1] {
		t.Fatalf("deliveries %v at %v, want two at one instant", order, at)
	}
	if order[0] != 0 || order[1] != 1 {
		t.Errorf("tie order = %v, want [0 1] (construction order)", order)
	}
}
