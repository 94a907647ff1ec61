package atm

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
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
	in, out    LinkStats   // summed over every port's ingress / egress links
	faults     fault.Stats // summed over every link's injector
	events     []traceKey
	snapshot   []metrics.Value // the switch's canonical telemetry at quiesce
	cellsOut   int             // cell records out of the store at quiesce

	// What the schedule reached, for TestSwitchRigCoversConditions.
	burst   map[VCI][]int // each sent cell's burst number, by VCI and sequence number
	blocked int           // per-cell machine only: sends blocked on a full egress lane
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

// runSwitchSchedule replays one fuzz-derived schedule through a 4-port
// switch whose lanes are configured by lc, on the per-cell reference
// machine if perCell is set, and returns everything observable: the
// delivery log, the per-port, link and fault counters, the telemetry
// snapshot and the trace events, sorted (the two machines emit them in
// different orders).
// Senders stage each cell's payload in a local array tagged with its
// sequence number, so a delivery carrying another cell's bytes shows.
func runSwitchSchedule(t *testing.T, data []byte, perCell bool, lc LinkConfig) switchRun {
	t.Helper()
	e := sim.NewEngine(99)
	defer e.Shutdown()
	var events []traceKey
	e.SetRecorder(func(ev sim.TraceEvent) { events = append(events, traceKey{ev.At, ev.Comp, ev.Name, ev.Arg}) })
	// A tiny output queue so bursts that skew bunches tail-drop mid-PDU,
	// splitting trains, with a mark threshold below it so schedules also
	// exercise the ECN band between first-mark and tail-drop.
	sw := NewSwitch(e, 4, SwitchConfig{QueueCells: 8, MarkThreshold: 4, Link: lc})
	var ref *refSwitch
	if perCell {
		ref = perCellFabric(sw)
	}
	reg := metrics.New()
	sw.RegisterMetrics(reg, "fabric")

	// Port 0 sends on VCI 10 and 11, which start routed to ports 1 and
	// 2; route-change ops re-target them mid-run. Port 3 sends on VCI 12
	// and 13, routed to ports 1 and 2 for good, so the two senders
	// contend for the same output ports.
	routeOf := map[VCI]int{10: 1, 11: 2}
	for v, pt := range map[VCI]int{10: 1, 11: 2, 12: 1, 13: 2} {
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
	burst := map[VCI][]int{}
	// Both senders walk the whole schedule and both sleep at its gaps;
	// a burst whose 0x10 bit is set is port 3's, any other port 0's.
	sender := func(port int, vciBase VCI, mine byte) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			seq := map[VCI]uint32{}
			for b, op := range data {
				vci := vciBase + VCI(op&1)
				switch {
				case op&0xC0 == 0xC0:
					if port != 0 {
						continue
					}
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
				case op&0x10 == mine:
					// Burst of 1–8 cells on one VCI through the port's ingress.
					n := int(op>>1)&7 + 1
					for j := 0; j < n; j++ {
						var buf [CellPayload]byte
						s := seq[vci]
						seq[vci] = s + 1
						buf[0] = byte(s) ^ byte(vci)
						c := Cell{VCI: vci, Seq: s, Len: CellPayload, Payload: buf}
						sw.Port(port).Ingress().Send(p, c)
						sent++
						burst[vci] = append(burst[vci], b)
					}
				}
			}
		}
	}
	e.Go("fuzz-tx", sender(0, 10, 0))
	for _, op := range data {
		if op&0x90 == 0x10 {
			// Start port 3's sender only for a schedule that gives it a
			// burst.
			e.Go("fuzz-tx3", sender(3, 12, 0x10))
			break
		}
	}
	e.Run()

	r := switchRun{
		deliveries: deliveries, stats: make([]SwitchPortStats, sw.NumPorts()), sent: sent,
		snapshot: reg.Snapshot(false), cellsOut: CellStore(e).Outstanding(), burst: burst,
	}
	if ref != nil {
		r.blocked = ref.blocked()
	}
	for i := range r.stats {
		r.stats[i] = sw.Port(i).Stats()
		in, out := sw.Port(i).Ingress().Stats(), sw.Port(i).Egress().Stats()
		r.in.Sent += in.Sent
		r.in.Lost += in.Lost
		r.in.Duplicated += in.Duplicated
		r.out.Sent += out.Sent
		r.out.Lost += out.Lost
		r.out.Duplicated += out.Duplicated
		r.faults.Add(sw.Port(i).Ingress().FaultStats())
		r.faults.Add(sw.Port(i).Egress().FaultStats())
	}
	// The snapshot settled every train port, so its pops are in the
	// trace.
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
// (compareDeliveries), on every port's, link's and injector's counters,
// on the telemetry snapshot (the queue-delay sketch included) and on
// the multiset of trace events, and each to have every cell record
// back in the store at quiesce.
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
	if train.in != percell.in || train.out != percell.out || train.faults != percell.faults {
		t.Fatalf("link stats differ:\ntrain:   in %+v out %+v faults %+v\npercell: in %+v out %+v faults %+v",
			train.in, train.out, train.faults, percell.in, percell.out, percell.faults)
	}
	if !reflect.DeepEqual(train.snapshot, percell.snapshot) {
		t.Fatalf("metrics snapshots differ:\ntrain:   %+v\npercell: %+v", train.snapshot, percell.snapshot)
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

// switchSeeds are FuzzSwitchTrain's seed corpus, which
// TestSwitchTrainPoolSeeds replays as a plain test and
// TestSwitchRigCoversConditions checks for coverage. Seeds 3 and 5 run
// on lossy, corrupting, duplicating and skewed lanes, and 4, 6 and 7
// on skewed ones only. One sender cannot overrun an output port at
// line rate; skew can, by bunching the cells it delays, so 6 and 7
// fill the queue past its mark threshold and block on full egress
// lanes, 6 tail-drops, and 7 moves a VCI with cells in flight. Seed 8
// is incast on clean lanes: both senders feed port 1 at line rate.
var switchSeeds = []struct {
	data                     []byte
	loss, corrupt, dup, skew uint8
}{
	{data: []byte{0x07, 0x85, 0x0E, 0xC0, 0x06, 0x81, 0x0F}},
	{data: []byte{0x0E, 0x0F, 0x0E, 0x0F, 0xC1, 0x0E, 0x0F, 0x86, 0x0E}},
	{data: []byte{0xC0, 0xC1, 0x01, 0x00, 0x80, 0x01}},
	{[]byte{0x0E, 0x0F, 0x0E, 0x0F, 0xC1, 0x0E, 0x0F, 0x86, 0x0E}, 20, 30, 30, 50},
	{[]byte{0x07, 0x85, 0x0E, 0xC0, 0x06, 0x81, 0x0F}, 0, 0, 0, 255},
	{[]byte{0x0E, 0x0F, 0x0E, 0x0F, 0x0E, 0x0F, 0x0E}, 120, 0, 200, 10},
	{[]byte{0x03, 0x0B, 0xC1, 0x03, 0x0D, 0x0A, 0x0E, 0x04, 0x0B, 0x0A}, 0, 0, 0, 241},
	{[]byte{0x0E, 0x0F, 0x0E, 0x0F, 0x0E, 0x0F, 0x0E, 0x0F, 0xC0, 0x0E, 0x0F, 0x0E, 0x0F}, 0, 0, 0, 255},
	{data: []byte{0x1E, 0x0E, 0x1E, 0x0E, 0x1E, 0x0E, 0x1E, 0x0E}},
}

// FuzzSwitchTrain drives fuzz-derived burst/gap/route-change
// schedules through the switch twice — train forwarding and the
// per-cell reference machine (switch_ref_test.go) — and requires
// identical behaviour: the same cells, in the same order, at the same
// simulated instants, with the same drop and high-water counters, the
// same telemetry and the same trace events. Two senders contending
// for tiny queues force mid-train tail-drops (train splits), and
// route changes re-target mid-stream (train boundaries); each
// payload's tag must reach the receiver with its cell. The four link
// inputs put loss, corruption, duplication and queueing skew on every
// lane, so the faulted, skewed link is held to the same agreement.
func FuzzSwitchTrain(f *testing.F) {
	for _, sd := range switchSeeds {
		f.Add(sd.data, sd.loss, sd.corrupt, sd.dup, sd.skew)
	}
	f.Fuzz(func(t *testing.T, data []byte, loss, corrupt, dup, skew uint8) {
		if len(data) > 256 {
			data = data[:256]
		}
		lc := linkFaults(loss, corrupt, dup, skew)
		run := runSwitchSchedule(t, data, false, lc)
		compareRuns(t, run, runSwitchSchedule(t, data, true, lc))
		train, trainStats := run.deliveries, run.stats

		// Conservation: every cell offered at ports 0 and 3 is forwarded
		// or dropped, and forwarded cells all reached a receiver. A
		// faulted link loses and clones cells on the way into and out of
		// the switch, so those counts enter the balance.
		offered := trainStats[0].In + trainStats[3].In
		in := offered
		if lc.Fault != nil {
			in += run.in.Lost - run.in.Duplicated
		}
		if in != int64(run.sent) {
			t.Fatalf("ports 0 and 3 saw %d cells, sent %d", offered, run.sent)
		}
		var fwd, dropped int64
		for _, st := range trainStats {
			fwd += st.Forwarded
			dropped += st.Dropped
		}
		if fwd+dropped != offered {
			t.Fatalf("conservation: forwarded %d + dropped %d != in %d", fwd, dropped, offered)
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
// the differential check runs under `go test` even without -fuzz.
func TestSwitchTrainPoolSeeds(t *testing.T) {
	for i, sd := range switchSeeds {
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) {
			lc := linkFaults(sd.loss, sd.corrupt, sd.dup, sd.skew)
			compareRuns(t, runSwitchSchedule(t, sd.data, false, lc), runSwitchSchedule(t, sd.data, true, lc))
		})
	}
}

// TestSwitchRigCoversConditions shows that the seeds reach every
// condition the differential check is for: head-of-line blocking on a
// full egress-lane FIFO, tail drops that split a burst's train, tail
// drops while both input ports send, CE marks, link loss, corruption
// and duplication, cells overtaken across lanes by skew, and route
// changes that move a VCI's cells from one port to the other.
func TestSwitchRigCoversConditions(t *testing.T) {
	n := map[string]int64{}
	for _, sd := range switchSeeds {
		lc := linkFaults(sd.loss, sd.corrupt, sd.dup, sd.skew)
		r := runSwitchSchedule(t, sd.data, false, lc)
		n["sends blocked on a full egress lane"] += int64(runSwitchSchedule(t, sd.data, true, lc).blocked)
		for _, st := range r.stats {
			n["CE marks"] += st.Marked
			if r.stats[0].In > 0 && r.stats[3].In > 0 {
				n["tail drops while both input ports send"] += st.Dropped
			}
		}
		n["link losses"] += r.in.Lost + r.out.Lost
		n["link corruptions"] += r.faults.Corrupted
		n["link duplications"] += r.in.Duplicated + r.out.Duplicated
		ports := map[VCI]map[int]bool{}
		for _, d := range r.deliveries {
			if ports[d.vci] == nil {
				ports[d.vci] = map[int]bool{}
			}
			ports[d.vci][d.port] = true
		}
		for _, p := range ports {
			if len(p) > 1 {
				n["VCIs moved to another port by a route change"]++
			}
		}
		if lc.Fault != nil {
			// Lost and cloned cells void the two counts below.
			continue
		}
		for j, a := range r.deliveries {
			for _, b := range r.deliveries[j+1:] {
				// Queueing reorders across lanes too; count skewed lanes only.
				if sd.skew > 0 && a.vci == b.vci && a.seq > b.seq && a.at < b.at {
					n["cells overtaken across lanes by skew"]++
				}
			}
		}
		// A burst that lost some of its cells but not all: on fault-free
		// links every cell not delivered was tail-dropped.
		type burstKey struct {
			vci VCI
			b   int
		}
		sent, got := map[burstKey]int{}, map[burstKey]int{}
		for v, bs := range r.burst {
			for _, b := range bs {
				sent[burstKey{v, b}]++
			}
		}
		for _, d := range r.deliveries {
			got[burstKey{d.vci, r.burst[d.vci][d.seq]}]++
		}
		for k, m := range sent {
			if g := got[k]; g > 0 && g < m {
				n["bursts split by a tail drop"]++
			}
		}
	}
	for _, cond := range []string{
		"sends blocked on a full egress lane", "bursts split by a tail drop",
		"tail drops while both input ports send", "CE marks",
		"link losses", "link corruptions", "link duplications",
		"cells overtaken across lanes by skew", "VCIs moved to another port by a route change",
	} {
		t.Logf("%s: %d", cond, n[cond])
		if n[cond] <= 0 {
			t.Errorf("no seed produces %s", cond)
		}
	}
}
