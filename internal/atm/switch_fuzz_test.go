package atm

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
)

// fuzzDelivery is one cell observed at an egress port, with the stamp
// the receiver saw it at — the full observable behaviour of the fabric.
type fuzzDelivery struct {
	port, lane int
	vci        VCI
	seq        uint32
	payload    [CellPayload]byte // the first byte is checked against the sender's pattern
	ce         bool              // ECN mark set by the congested output queue
	at         sim.Time
}

// switchRun is everything observable from one replayed schedule.
type switchRun struct {
	deliveries []fuzzDelivery
	stats      []SwitchPortStats
	sent       int
	in, out    LinkStats // summed over every port's ingress / egress links
	events     []traceKey
	cellsOut   int // cell records out of the store at quiesce
}

// traceKey is what the two machines must agree on of one trace event.
type traceKey struct {
	at         sim.Time
	comp, name string
	arg        int64
}

// linkFaults turns the fuzzer's four link inputs into the link config
// every switch lane gets: Bernoulli loss, corruption and duplication
// probabilities, and a queueing-skew bound of up to 25.5µs.
func linkFaults(loss, corrupt, dup, skew uint8) LinkConfig {
	lc := LinkConfig{Skew: QueueingSkew{Max: time.Duration(skew) * 100 * time.Nanosecond}}
	if loss|corrupt|dup != 0 {
		lc.Fault = &fault.Config{CorruptProb: float64(corrupt) / 255, DupProb: float64(dup) / 255}
		if loss > 0 {
			lc.Fault.Loss = fault.Bernoulli{P: float64(loss) / 510}
		}
	}
	return lc
}

// runSwitchSchedule replays one fuzz-derived schedule through a 3-port
// switch whose lanes are configured by lc and returns everything
// observable: the delivery log, the per-port and link counters, and
// the trace events, sorted (the two machines emit them in different
// orders).
// Senders stage each cell's payload in a local array tagged with its
// sequence number, so a delivery carrying another cell's bytes shows.
func runSwitchSchedule(t *testing.T, data []byte, perCell bool, lc LinkConfig) switchRun {
	t.Helper()
	e := sim.NewEngine(99)
	defer e.Shutdown()
	var events []traceKey
	e.SetRecorder(func(ev sim.TraceEvent) { events = append(events, traceKey{ev.At, ev.Comp, ev.Name, ev.Arg}) })
	// A tiny output queue so bursts tail-drop mid-PDU, splitting trains,
	// with a mark threshold below it so schedules also exercise the ECN
	// band between first-mark and tail-drop.
	sw := NewSwitch(e, 3, SwitchConfig{QueueCells: 8, MarkThreshold: 4, PerCellFabric: perCell, Link: lc})

	// VCI 10 and 11 start routed to ports 1 and 2; route-change ops
	// re-target them mid-run.
	routeOf := map[VCI]int{10: 1, 11: 2}
	for v, pt := range routeOf {
		if err := sw.Route(v, pt); err != nil {
			t.Fatal(err)
		}
	}

	var deliveries []fuzzDelivery
	for i := 1; i <= 2; i++ {
		port := i
		sw.Port(port).Egress().SetReceiver(func(c Cell, lane int) {
			deliveries = append(deliveries, fuzzDelivery{
				port: port, lane: lane, vci: c.VCI, seq: c.Seq,
				payload: c.Payload, ce: c.CE, at: e.Now(),
			})
		})
	}

	sent := 0
	e.Go("fuzz-tx", func(p *sim.Proc) {
		seq := map[VCI]uint32{}
		for _, op := range data {
			vci := VCI(10 + op&1)
			switch {
			case op&0xC0 == 0xC0:
				// Route change at a quiet point: re-target the VCI to the
				// other client port. Trains in flight keep their old port.
				next := 1
				if routeOf[vci] == 1 {
					next = 2
				}
				delete(sw.routes, vci)
				if err := sw.Route(vci, next); err != nil {
					panic(err)
				}
				routeOf[vci] = next
			case op&0xC0 == 0x80:
				// Gap: let trains drain so the next burst starts fresh.
				p.Sleep(time.Duration(1+op&0x3F) * 10 * time.Microsecond)
			default:
				// Burst of 1–8 cells on one VCI through port 0's ingress.
				n := int(op>>1)&7 + 1
				for j := 0; j < n; j++ {
					var buf [CellPayload]byte
					s := seq[vci]
					seq[vci] = s + 1
					buf[0] = byte(s) ^ byte(vci)
					c := Cell{VCI: vci, Seq: s, Len: CellPayload, Payload: buf}
					sw.Port(0).Ingress().Send(p, c)
					sent++
				}
			}
		}
	})
	e.Run()

	r := switchRun{deliveries: deliveries, stats: make([]SwitchPortStats, sw.NumPorts()), sent: sent, cellsOut: CellStore(e).Outstanding()}
	for i := range r.stats {
		r.stats[i] = sw.Port(i).Stats()
		in, out := sw.Port(i).Ingress().Stats(), sw.Port(i).Egress().Stats()
		r.in.Sent += in.Sent
		r.in.Lost += in.Lost
		r.in.Duplicated += in.Duplicated
		r.out.Sent += out.Sent
		r.out.Lost += out.Lost
		r.out.Duplicated += out.Duplicated
	}
	// Stats settled every train port, so its pops are in the trace.
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.comp != b.comp {
			return a.comp < b.comp
		}
		if a.name != b.name {
			return a.name < b.name
		}
		return a.arg < b.arg
	})
	r.events = events
	return r
}

// compareRuns requires the two machines to agree on every delivery
// (compareDeliveries), on every port's counters and on the multiset of
// trace events, and each to have every cell record back in the store
// at quiesce.
func compareRuns(t *testing.T, train, percell switchRun) {
	t.Helper()
	if train.cellsOut != 0 || percell.cellsOut != 0 {
		t.Fatalf("cell records out at quiesce: train %d, per-cell %d", train.cellsOut, percell.cellsOut)
	}
	compareDeliveries(t, train.deliveries, percell.deliveries)
	for i := range train.stats {
		if train.stats[i] != percell.stats[i] {
			t.Fatalf("port %d stats differ:\ntrain:   %+v\npercell: %+v", i, train.stats[i], percell.stats[i])
		}
	}
	if train.in != percell.in || train.out != percell.out {
		t.Fatalf("link stats differ:\ntrain:   in %+v out %+v\npercell: in %+v out %+v", train.in, train.out, percell.in, percell.out)
	}
	for i := 0; i < len(train.events) || i < len(percell.events); i++ {
		if i == len(train.events) || i == len(percell.events) || train.events[i] != percell.events[i] {
			t.Fatalf("trace events differ from sorted event %d on (train %d events, per-cell %d):\ntrain:   %+v\npercell: %+v",
				i, len(train.events), len(percell.events), train.events[i:min(i+4, len(train.events))], percell.events[i:min(i+4, len(percell.events))])
		}
	}
}

// compareDeliveries requires the two machines' delivery logs to match per
// egress port: each port's receiver must see the same cells, in the same
// order, at the same instants. The interleaving of same-instant deliveries
// on *different* ports is not observable (the receivers are disjoint) and
// may legally permute between the two machines — the train walker and the
// per-cell arbiter schedule different event types, so tied instants break
// ties by insertion order.
func compareDeliveries(t *testing.T, train, percell []fuzzDelivery) {
	t.Helper()
	if len(train) != len(percell) {
		t.Fatalf("train delivered %d cells, per-cell fabric %d", len(train), len(percell))
	}
	for port := 1; port <= 2; port++ {
		var a, b []fuzzDelivery
		for _, d := range train {
			if d.port == port {
				a = append(a, d)
			}
		}
		for _, d := range percell {
			if d.port == port {
				b = append(b, d)
			}
		}
		if len(a) != len(b) {
			t.Fatalf("port %d: train delivered %d cells, per-cell fabric %d", port, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("port %d delivery %d differs:\ntrain:   %+v\npercell: %+v", port, i, a[i], b[i])
			}
		}
	}
}

// FuzzSwitchTrain drives fuzz-derived burst/gap/route-change
// schedules through the switch twice — train forwarding and the forced
// per-cell fabric — and requires identical behaviour: the same cells, in
// the same order, at the same simulated instants, with the same drop and
// high-water counters and the same trace events. Tiny queues force
// mid-train tail-drops (train splits) and route changes re-target
// mid-stream (train boundaries); each payload's tag must reach the
// receiver with its cell. The four
// link inputs put loss, corruption, duplication and queueing skew
// on every lane, so the faulted, skewed link is held to the same
// agreement.
func FuzzSwitchTrain(f *testing.F) {
	f.Add([]byte{0x07, 0x85, 0x0E, 0xC0, 0x06, 0x81, 0x0F}, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0x0E, 0x0F, 0x0E, 0x0F, 0xC1, 0x0E, 0x0F, 0x86, 0x0E}, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0xC0, 0xC1, 0x01, 0x00, 0x80, 0x01}, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0x0E, 0x0F, 0x0E, 0x0F, 0xC1, 0x0E, 0x0F, 0x86, 0x0E}, uint8(20), uint8(30), uint8(30), uint8(50))
	f.Add([]byte{0x07, 0x85, 0x0E, 0xC0, 0x06, 0x81, 0x0F}, uint8(0), uint8(0), uint8(0), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, loss, corrupt, dup, skew uint8) {
		if len(data) > 256 {
			data = data[:256]
		}
		lc := linkFaults(loss, corrupt, dup, skew)
		run := runSwitchSchedule(t, data, false, lc)
		compareRuns(t, run, runSwitchSchedule(t, data, true, lc))
		train, trainStats := run.deliveries, run.stats

		// Conservation: every cell offered at port 0 is forwarded or
		// dropped, and forwarded cells all reached a receiver. A faulted
		// link loses and clones cells on the way into and out of the
		// switch, so those counts enter the balance.
		in := trainStats[0].In
		if lc.Fault != nil {
			in += run.in.Lost - run.in.Duplicated
		}
		if in != int64(run.sent) {
			t.Fatalf("port 0 saw %d cells, sent %d", trainStats[0].In, run.sent)
		}
		var fwd, dropped int64
		for _, st := range trainStats {
			fwd += st.Forwarded
			dropped += st.Dropped
		}
		if fwd+dropped != trainStats[0].In {
			t.Fatalf("conservation: forwarded %d + dropped %d != in %d", fwd, dropped, trainStats[0].In)
		}
		delivered := int64(len(train))
		if lc.Fault != nil {
			delivered += run.out.Lost - run.out.Duplicated
		}
		if delivered != fwd {
			t.Fatalf("delivered %d cells but Forwarded = %d (egress links %+v)", len(train), fwd, run.out)
		}
		if lc.Fault != nil {
			// Loss, clones and flipped bits void the per-cell checks below.
			return
		}

		// Every Marked cell was accepted, so at quiesce each one must
		// have reached a receiver with its CE bit intact — the marks
		// counter and the delivered-CE count agree exactly.
		var marked, ceSeen int64
		for _, st := range trainStats {
			marked += st.Marked
		}
		for _, d := range train {
			if d.ce {
				ceSeen++
			}
		}
		if marked != ceSeen {
			t.Fatalf("Marked = %d but %d delivered cells carry CE", marked, ceSeen)
		}

		// Per-lane order and payload integrity: the fabric preserves FIFO
		// order per (port, lane, VCI) — striping interleaves sequence
		// numbers across lanes by design — so within one lane sequence
		// numbers strictly increase (drops allowed, duplicates and
		// reorders not), and each payload still carries its sender's
		// pattern.
		type flow struct {
			port, lane int
			vci        VCI
		}
		lastSeq := map[flow]int64{}
		for _, d := range train {
			fl := flow{d.port, d.lane, d.vci}
			if prev, ok := lastSeq[fl]; ok && int64(d.seq) <= prev {
				t.Fatalf("port %d lane %d VCI %d: seq %d arrived after %d", d.port, d.lane, d.vci, d.seq, prev)
			}
			lastSeq[fl] = int64(d.seq)
			if want := byte(d.seq) ^ byte(d.vci); d.payload[0] != want {
				t.Fatalf("VCI %d seq %d payload tag %#x, want %#x (payload of another cell?)", d.vci, d.seq, d.payload[0], want)
			}
		}
	})
}

// TestSwitchTrainPoolSeeds replays the seed corpus as a plain test so
// the differential check runs under `go test` even without -fuzz; the
// last three seeds run on lossy, corrupting, duplicating and skewed
// lanes.
func TestSwitchTrainPoolSeeds(t *testing.T) {
	seeds := []struct {
		data                     []byte
		loss, corrupt, dup, skew uint8
	}{
		{data: []byte{0x07, 0x85, 0x0E, 0xC0, 0x06, 0x81, 0x0F}},
		{data: []byte{0x0E, 0x0F, 0x0E, 0x0F, 0xC1, 0x0E, 0x0F, 0x86, 0x0E}},
		{data: []byte{0xC0, 0xC1, 0x01, 0x00, 0x80, 0x01}},
		{[]byte{0x0E, 0x0F, 0x0E, 0x0F, 0xC1, 0x0E, 0x0F, 0x86, 0x0E}, 20, 30, 30, 50},
		{[]byte{0x07, 0x85, 0x0E, 0xC0, 0x06, 0x81, 0x0F}, 0, 0, 0, 255},
		{[]byte{0x0E, 0x0F, 0x0E, 0x0F, 0x0E, 0x0F, 0x0E}, 120, 0, 200, 10},
	}
	for i, sd := range seeds {
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) {
			lc := linkFaults(sd.loss, sd.corrupt, sd.dup, sd.skew)
			compareRuns(t, runSwitchSchedule(t, sd.data, false, lc), runSwitchSchedule(t, sd.data, true, lc))
		})
	}
}
