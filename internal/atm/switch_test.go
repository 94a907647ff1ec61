package atm

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
)

// rxRecord captures one delivered cell at an egress port.
type rxRecord struct {
	c    Cell
	lane int
}

// collect installs a recording receiver on port pt's egress group.
func collect(pt *SwitchPort, out *[]rxRecord) {
	pt.Egress().SetReceiver(func(c Cell, lane int) {
		*out = append(*out, rxRecord{c: c, lane: lane})
	})
}

func TestSwitchRoutesByVCI(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	sw := NewSwitch(e, 3, SwitchConfig{})
	if err := sw.Route(10, 1); err != nil {
		t.Fatal(err)
	}
	if err := sw.Route(11, 2); err != nil {
		t.Fatal(err)
	}
	var at1, at2 []rxRecord
	collect(sw.Port(1), &at1)
	collect(sw.Port(2), &at2)
	e.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			sw.Port(0).Ingress().Send(p, Cell{VCI: 10, Seq: uint32(i), Len: CellPayload})
			sw.Port(0).Ingress().Send(p, Cell{VCI: 11, Seq: uint32(i), Len: CellPayload})
		}
	})
	e.Run()
	if len(at1) != 8 || len(at2) != 8 {
		t.Fatalf("port1 got %d cells, port2 got %d, want 8 each", len(at1), len(at2))
	}
	for _, r := range at1 {
		if r.c.VCI != 10 {
			t.Errorf("port 1 received VCI %d", r.c.VCI)
		}
	}
	for _, r := range at2 {
		if r.c.VCI != 11 {
			t.Errorf("port 2 received VCI %d", r.c.VCI)
		}
	}
	if port, ok := sw.routes[10]; !ok || port != 1 {
		t.Errorf("route of VCI 10 = %d,%v", port, ok)
	}
}

func TestSwitchPreservesLaneAndPerLaneOrder(t *testing.T) {
	// The reassembly invariant: a cell entering on ingress lane l must
	// leave on egress lane l, and per-lane FIFO order must hold.
	e := sim.NewEngine(1)
	defer e.Shutdown()
	sw := NewSwitch(e, 2, SwitchConfig{})
	if err := sw.Route(7, 1); err != nil {
		t.Fatal(err)
	}
	var got []rxRecord
	collect(sw.Port(1), &got)
	const cells = 40
	e.Go("tx", func(p *sim.Proc) {
		for i := 0; i < cells; i++ {
			// Round-robin striping: cell i rides lane i mod width.
			sw.Port(0).Ingress().Send(p, Cell{VCI: 7, Seq: uint32(i), Len: CellPayload})
		}
	})
	e.Run()
	if len(got) != cells {
		t.Fatalf("delivered %d cells, want %d", len(got), cells)
	}
	lastSeq := map[int]int{}
	for _, r := range got {
		if int(r.c.Seq)%StripeWidth != r.lane {
			t.Fatalf("cell %d crossed from lane %d to lane %d", r.c.Seq, int(r.c.Seq)%StripeWidth, r.lane)
		}
		if prev, ok := lastSeq[r.lane]; ok && int(r.c.Seq) < prev {
			t.Fatalf("lane %d reordered: %d after %d", r.lane, r.c.Seq, prev)
		}
		lastSeq[r.lane] = int(r.c.Seq)
	}
}

func TestSwitchDuplicateRouteIsError(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	sw := NewSwitch(e, 2, SwitchConfig{})
	if err := sw.Route(42, 1); err != nil {
		t.Fatal(err)
	}
	if err := sw.Route(42, 0); err == nil {
		t.Error("re-routing VCI 42 to another port did not error")
	}
	if err := sw.Route(42, 1); err == nil {
		t.Error("re-routing VCI 42 to the same port did not error")
	}
	// The original route must be untouched.
	if port, ok := sw.routes[42]; !ok || port != 1 {
		t.Errorf("route of VCI 42 = %d,%v after failed re-route", port, ok)
	}
}

func TestSwitchRouteRangeError(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	sw := NewSwitch(e, 2, SwitchConfig{})
	if err := sw.Route(1, 2); err == nil {
		t.Error("routing to port 2 of a 2-port switch did not error")
	}
	if err := sw.Route(1, -1); err == nil {
		t.Error("routing to port -1 did not error")
	}
}

func TestSwitchUnroutedVCIDroppedAndCounted(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	sw := NewSwitch(e, 2, SwitchConfig{})
	var got []rxRecord
	collect(sw.Port(1), &got)
	e.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			sw.Port(0).Ingress().Send(p, Cell{VCI: 99, Len: CellPayload})
		}
	})
	e.Run()
	if len(got) != 0 {
		t.Fatalf("unrouted VCI delivered %d cells", len(got))
	}
	st := sw.Port(0).Stats()
	if st.In != 5 || st.NoRoute != 5 {
		t.Errorf("input port stats = %+v, want In=5 NoRoute=5", st)
	}
	if err := e.CheckPools(); err != nil {
		t.Errorf("unrouted cells' records: %v", err)
	}
}

func TestSwitchQueueOverflowDropsAndCounts(t *testing.T) {
	// Two ports blast at one output at 2× its drain rate with a tiny
	// queue: cells must be dropped (never block the inputs), counted,
	// and the accounting must balance.
	e := sim.NewEngine(1)
	defer e.Shutdown()
	sw := NewSwitch(e, 3, SwitchConfig{QueueCells: 8})
	if err := sw.Route(10, 2); err != nil {
		t.Fatal(err)
	}
	if err := sw.Route(11, 2); err != nil {
		t.Fatal(err)
	}
	var got []rxRecord
	collect(sw.Port(2), &got)
	const perInput = 400
	for in, v := range []VCI{10, 11} {
		in, v := in, v
		e.Go("tx", func(p *sim.Proc) {
			for i := 0; i < perInput; i++ {
				sw.Port(in).Ingress().Send(p, Cell{VCI: v, Seq: uint32(i), Len: CellPayload})
			}
		})
	}
	e.Run()
	st := sw.Stats()
	if st.Dropped == 0 {
		t.Fatal("2:1 overload through an 8-cell queue dropped nothing")
	}
	if st.In != 2*perInput {
		t.Errorf("In = %d, want %d", st.In, 2*perInput)
	}
	if st.Forwarded+st.Dropped+st.NoRoute != st.In {
		t.Errorf("accounting leak: In=%d Forwarded=%d Dropped=%d NoRoute=%d", st.In, st.Forwarded, st.Dropped, st.NoRoute)
	}
	if int64(len(got)) != st.Forwarded {
		t.Errorf("delivered %d cells but Forwarded=%d", len(got), st.Forwarded)
	}
	if err := e.CheckPools(); err != nil {
		t.Errorf("dropped cells' records: %v", err)
	}
	// Per-lane FIFO order must survive the overload.
	lastSeq := map[[2]int]int{}
	for _, r := range got {
		key := [2]int{int(r.c.VCI), r.lane}
		if prev, ok := lastSeq[key]; ok && int(r.c.Seq) < prev {
			t.Fatalf("VCI %d lane %d reordered under overload", r.c.VCI, r.lane)
		}
		lastSeq[key] = int(r.c.Seq)
	}
}

func TestSwitchedPDUSurvivesInterleaving(t *testing.T) {
	// Two senders segment PDUs onto the same output port concurrently;
	// each PDU must reassemble byte for byte from its own VCI's cells.
	e := sim.NewEngine(1)
	defer e.Shutdown()
	sw := NewSwitch(e, 3, SwitchConfig{})
	if err := sw.Route(20, 2); err != nil {
		t.Fatal(err)
	}
	if err := sw.Route(21, 2); err != nil {
		t.Fatal(err)
	}
	pdus := map[VCI][]byte{}
	for i, v := range []VCI{20, 21} {
		pdu := make([]byte, 1000+i*333)
		for j := range pdu {
			pdu[j] = byte(j*7 + i*13 + 1)
		}
		pdus[v] = pdu
	}
	byVCI := map[VCI][]Cell{}
	sw.Port(2).Egress().SetReceiver(func(c Cell, lane int) {
		byVCI[c.VCI] = append(byVCI[c.VCI], c)
	})
	for in, v := range []VCI{20, 21} {
		in, v := in, v
		e.Go("tx", func(p *sim.Proc) {
			for _, c := range Segment(v, pdus[v], StripeWidth, true) {
				sw.Port(in).Ingress().Send(p, c)
			}
		})
	}
	e.Run()
	for v, want := range pdus {
		cells := byVCI[v]
		// Per-lane order is preserved but lanes interleave; the Seq
		// carried for the sequence-number strategy restores stream order.
		sort.Slice(cells, func(i, j int) bool { return cells[i].Seq < cells[j].Seq })
		gotVCI, got, err := Reassemble(cells)
		if err != nil {
			t.Fatalf("VCI %d: %v", v, err)
		}
		if gotVCI != v || string(got) != string(want) {
			t.Errorf("VCI %d: PDU corrupted across the switch", v)
		}
	}
}

func TestSwitchPortPanicsOutOfRange(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	sw := NewSwitch(e, 2, SwitchConfig{})
	defer func() {
		if recover() == nil {
			t.Error("Port(5) did not panic")
		}
	}()
	sw.Port(5)
}

// TestSwitchDropEventsMatchStats is the fabric's drop-accounting
// oracle: with a recorder attached, every queue-overflow and no-route
// counted in a port's stats has exactly one typed drop event on that
// port's track, on the switch and on the per-cell reference machine.
func TestSwitchDropEventsMatchStats(t *testing.T) {
	for _, perCell := range []bool{false, true} {
		t.Run(fmt.Sprintf("percell=%v", perCell), func(t *testing.T) {
			e := sim.NewEngine(1)
			defer e.Shutdown()
			type key struct{ comp, name string }
			drops := map[key]int64{}
			e.SetRecorder(func(ev sim.TraceEvent) {
				if ev.Cat == sim.CatDrop {
					drops[key{ev.Comp, ev.Name}]++
				}
			})
			sw := NewSwitch(e, 3, SwitchConfig{QueueCells: 8})
			if perCell {
				perCellFabric(sw)
			}
			if err := sw.Route(10, 2); err != nil {
				t.Fatal(err)
			}
			if err := sw.Route(11, 2); err != nil {
				t.Fatal(err)
			}
			var got []rxRecord
			collect(sw.Port(2), &got)
			for in, v := range []VCI{10, 11} {
				in, v := in, v
				e.Go("tx", func(p *sim.Proc) {
					for i := 0; i < 200; i++ {
						sw.Port(in).Ingress().Send(p, Cell{VCI: v, Seq: uint32(i), Len: CellPayload})
						if i%50 == in {
							sw.Port(in).Ingress().Send(p, Cell{VCI: 99, Len: CellPayload})
						}
					}
				})
			}
			e.Run()
			var dropped, noRoute int64
			for i := 0; i < 3; i++ {
				pt := sw.Port(i)
				st := pt.Stats()
				dropped += st.Dropped
				noRoute += st.NoRoute
				if n := drops[key{pt.comp, "queue-overflow"}]; n != st.Dropped {
					t.Errorf("port %d: %d queue-overflow events, Dropped = %d", i, n, st.Dropped)
				}
				if n := drops[key{pt.comp, "no-route"}]; n != st.NoRoute {
					t.Errorf("port %d: %d no-route events, NoRoute = %d", i, n, st.NoRoute)
				}
			}
			if dropped == 0 || noRoute != 8 {
				t.Errorf("rig exercised Dropped = %d, NoRoute = %d; want > 0 and 8", dropped, noRoute)
			}
			var events int64
			for _, n := range drops {
				events += n
			}
			if events != dropped+noRoute {
				t.Errorf("%d drop events, stats count %d drops", events, dropped+noRoute)
			}
		})
	}
}

func TestSwitchPortStatsDropsAndHighWater(t *testing.T) {
	// Two senders fan into one egress port with a tiny queue: overflow
	// must show up in Dropped and the occupancy peak in HighWater. The
	// snapshot is read between engine steps (the Link.Stats discipline),
	// which the -race runs of this package verify is safe.
	e := sim.NewEngine(1)
	defer e.Shutdown()
	sw := NewSwitch(e, 3, SwitchConfig{QueueCells: 8})
	if err := sw.Route(10, 2); err != nil {
		t.Fatal(err)
	}
	if err := sw.Route(11, 2); err != nil {
		t.Fatal(err)
	}
	var got []rxRecord
	collect(sw.Port(2), &got)
	const perSender = 100
	for s := 0; s < 2; s++ {
		vci := VCI(10 + s)
		in := sw.Port(s).Ingress()
		e.Go("tx", func(p *sim.Proc) {
			for i := 0; i < perSender; i++ {
				in.Send(p, Cell{VCI: vci, Seq: uint32(i), Len: CellPayload})
			}
		})
	}
	// Slice the run and read snapshots between steps: counters must be
	// coherent and monotonic at every quiescent point.
	var prev SwitchPortStats
	for i := 0; i < 40; i++ {
		e.RunUntil(e.Now().Add(50 * time.Microsecond))
		st := sw.Port(2).Stats()
		if st.Dropped < prev.Dropped || st.Forwarded < prev.Forwarded || st.HighWater < prev.HighWater {
			t.Fatalf("counters went backwards: %+v after %+v", st, prev)
		}
		prev = st
	}
	e.Run()
	st := sw.Port(2).Stats()
	if st.Dropped == 0 {
		t.Errorf("fan-in overload produced no drops: %+v", st)
	}
	if st.HighWater == 0 || st.HighWater > 8 {
		t.Errorf("HighWater = %d, want in (0, 8]", st.HighWater)
	}
	agg := sw.Stats()
	if agg.HighWater != st.HighWater {
		t.Errorf("aggregate HighWater %d != port HighWater %d", agg.HighWater, st.HighWater)
	}
	if in0 := sw.Port(0).Stats(); in0.In != perSender {
		t.Errorf("port 0 In = %d, want %d", in0.In, perSender)
	}
	if int64(len(got))+st.Dropped != 2*perSender {
		t.Errorf("delivered %d + dropped %d != sent %d", len(got), st.Dropped, 2*perSender)
	}
}
