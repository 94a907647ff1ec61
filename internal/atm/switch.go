package atm

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// DefaultSwitchQueueCells is the default per-output-port cell queue
// depth. It is sized like the OSIRIS on-board receive FIFO family:
// enough to absorb transient fan-in bursts, small enough that sustained
// overload is visible as drops rather than unbounded latency.
const DefaultSwitchQueueCells = 256

// SwitchConfig configures a cell switch.
type SwitchConfig struct {
	// Width is the number of striped lanes per port (default
	// StripeWidth). Every attached node must stripe at the same width.
	Width int
	// Link configures the physical links on both sides of every port
	// (the Index field is overridden per lane).
	Link LinkConfig
	// QueueCells bounds each output port's cell queue (default
	// DefaultSwitchQueueCells). Cells routed to a full queue are
	// dropped and counted in the port's Dropped statistic.
	QueueCells int
	// MarkThreshold enables ECN-style congestion marking: when a cell
	// enters an output queue whose occupancy (cells ahead of it) is at
	// least this threshold, the switch sets the cell's CE bit and counts
	// it in the port's Marked statistic. Zero disables marking (the
	// default — legacy behavior). Train forwarding marks exactly the
	// cells the per-cell reference machine (switch_ref_test.go) marks;
	// the differential fuzz oracle pins this.
	MarkThreshold int
}

func (c SwitchConfig) withDefaults() SwitchConfig {
	if c.Width == 0 {
		c.Width = StripeWidth
	}
	if c.QueueCells == 0 {
		c.QueueCells = DefaultSwitchQueueCells
	}
	return c
}

// SwitchPortStats counts one port's activity. Input-side counters (In,
// NoRoute) describe cells arriving from the attached node; output-side
// counters (Forwarded, Dropped) describe cells routed *to* this port.
type SwitchPortStats struct {
	In        int64 // cells received from the attached node
	NoRoute   int64 // input cells discarded for lack of a VCI route
	Forwarded int64 // cells transmitted on this port's egress lanes
	Dropped   int64 // cells dropped on egress-queue overflow
	Marked    int64 // cells CE-marked on entry past MarkThreshold occupancy
	HighWater int64 // maximum egress-queue occupancy observed (cells)
}

// vPoint is the precomputed future of one virtually-forwarded cell:
// enq is its arrival (enqueue) instant, pop the instant the egress
// arbiter dequeues it, acc the instant the egress link accepts it (the
// instant the arbiter's send completes and counts it Forwarded).
// Within one port pop and acc are nondecreasing in arrival order,
// which is what lets a ring with monotone settle cursors replay the
// per-cell reference machine's bookkeeping exactly.
type vPoint struct {
	enq sim.Time
	pop sim.Time
	acc sim.Time
}

// SwitchPort is one bidirectional port of a Switch: an ingress stripe
// group the attached node transmits on, an egress stripe group it
// receives on, and a bounded FIFO cell queue feeding the egress lanes,
// kept virtually (see Switch.trainForward).
type SwitchPort struct {
	index int
	eng   *sim.Engine
	comp  string // trace track label, precomputed (Emit stays alloc-free)
	in    *StripeGroup
	out   *StripeGroup
	stats SwitchPortStats

	// mQDelay is the egress queueing-delay sketch (µs), nil unless
	// RegisterMetrics installed one.
	mQDelay *metrics.Sketch

	// Virtual egress state; see Switch.trainForward.
	vBusy sim.Time // acc of the last virtually-sent cell (arbiter busy-until)
	// vq is a ring of pending vPoints in arrival order. Entries before
	// the vqPop cursor have been virtually dequeued and have fed the
	// queue-delay sketch and the pop-side trace counter; entries retire
	// off the head once their acc instant has passed and Forwarded is
	// credited.
	vq            []vPoint
	vqHead, vqLen int
	vqPop         int
}

// Index returns the port number.
func (pt *SwitchPort) Index() int { return pt.index }

// Ingress returns the node-to-switch stripe group; the attached node's
// board transmits on its links (Board.AttachTxLinks(pt.Ingress().Links())).
func (pt *SwitchPort) Ingress() *StripeGroup { return pt.in }

// Egress returns the switch-to-node stripe group; the attached node's
// board subscribes to it (Board.AttachRxLinks(pt.Egress())).
func (pt *SwitchPort) Egress() *StripeGroup { return pt.out }

// Stats returns a snapshot of the port's counters. Like Link.Stats, the
// snapshot is only coherent between engine steps — read it after the
// engine has quiesced (Run returned or Shutdown), not while events are
// being executed by another proc.
func (pt *SwitchPort) Stats() SwitchPortStats {
	// Credit every virtual forward whose accept instant has passed: a
	// cell counts as Forwarded when the egress link accepts it, so a
	// horizon-cut run must not count the in-flight tail.
	pt.settle(pt.eng.Now(), true)
	return pt.stats
}

// QueueLen reports the cells currently waiting in the output queue.
// The queue is virtual: the count is the number of accepted cells
// whose precomputed dequeue instant is still ahead of the engine's
// clock — identical to what an event-driven queue would hold at the
// same quiesced instant.
func (pt *SwitchPort) QueueLen() int {
	pt.settle(pt.eng.Now(), true)
	return pt.vqLen - pt.vqPop
}

// SwitchStats aggregates counters across all ports. HighWater is the
// maximum across ports, the rest are sums.
type SwitchStats struct {
	In        int64
	NoRoute   int64
	Forwarded int64
	Dropped   int64
	Marked    int64
	HighWater int64
}

// Switch is an N-port VCI-routed cell switch: the fabric that joins a
// cluster of OSIRIS hosts, generalizing the paper's back-to-back
// apparatus. Routing uses exactly the early-demultiplexing key of §3.1
// — the VCI — so one routing table serves every flow.
//
// Each cell keeps its stripe lane across the switch: a cell that
// arrives on ingress lane l leaves on egress lane l, and per-lane FIFO
// order is preserved end to end. That invariant is what lets the
// receiving board's four concurrent AAL5 reassemblies (§2.6 strategy
// two) place cells from many senders correctly even as their flows
// interleave in the fabric.
type Switch struct {
	eng    *sim.Engine
	cells  *sim.Pool[*Cell] // the engine's cell store
	cfg    SwitchConfig
	ports  []*SwitchPort
	routes map[VCI]int
	// inRoutes is the per-input-port route table (RouteFrom), consulted
	// before the wildcard table — real VCI switching is per (input port,
	// VCI), which is what lets one VCI carry a bidirectional connection:
	// data one way and acknowledgements the other, each leg routed by
	// where the cell came from. Lazily allocated; nil costs the hot
	// forwarding path nothing.
	inRoutes map[inPortVCI]int
}

// inPortVCI keys the per-input-port route table.
type inPortVCI struct {
	in int
	v  VCI
}

// NewSwitch creates a switch with nports ports. Its forwarding runs in
// link-delivery events; no switch starts a proc.
func NewSwitch(e *sim.Engine, nports int, cfg SwitchConfig) *Switch {
	if nports < 2 {
		panic("atm: a switch needs at least 2 ports")
	}
	cfg = cfg.withDefaults()
	sw := &Switch{eng: e, cells: CellStore(e), cfg: cfg, routes: make(map[VCI]int)}
	site := cfg.Link.FaultSite
	if site == "" {
		site = "sw"
	}
	for i := 0; i < nports; i++ {
		// Give every lane of every port its own fault and skew streams.
		inCfg, outCfg := cfg.Link, cfg.Link
		inCfg.FaultSite = fmt.Sprintf("%s/in%d", site, i)
		outCfg.FaultSite = fmt.Sprintf("%s/out%d", site, i)
		pt := &SwitchPort{
			index: i,
			eng:   e,
			comp:  fmt.Sprintf("sw-port%d", i),
		}
		// Ingress carries node → switch, egress switch → node. The
		// links draw their stamp ids in construction order (ingress
		// lanes then egress lanes, port by port); the committed
		// fingerprints pin the same-instant tie order this numbering
		// produces (see the stamp comment on Link).
		pt.in = NewStripeGroup(e, cfg.Width, inCfg)
		pt.out = NewStripeGroup(e, cfg.Width, outCfg)
		in := i
		pt.in.SetCellReceiver(func(c *Cell, lane int) { sw.forward(in, c, lane) })
		// Capacity: the virtual queue holds at most QueueCells
		// undequeued entries plus one dequeued-but-unaccepted straggler;
		// headroom beyond that only guards the ring against a model bug.
		pt.vq = make([]vPoint, cfg.QueueCells+8)
		sw.ports = append(sw.ports, pt)
	}
	return sw
}

// NumPorts returns the port count.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// Port returns port i.
func (sw *Switch) Port(i int) *SwitchPort {
	if i < 0 || i >= len(sw.ports) {
		panic(fmt.Sprintf("atm: switch port %d out of range [0,%d)", i, len(sw.ports)))
	}
	return sw.ports[i]
}

// Route installs v → port: cells carrying VCI v, from any input port,
// are forwarded to the given output port. Registering a VCI that
// already has a route is an error — never a silent re-route — because a
// collision would misdeliver one connection's cells into another's
// reassembly state.
func (sw *Switch) Route(v VCI, port int) error {
	if port < 0 || port >= len(sw.ports) {
		return fmt.Errorf("atm: route %d → port %d out of range [0,%d)", v, port, len(sw.ports))
	}
	if prev, ok := sw.routes[v]; ok {
		return fmt.Errorf("atm: VCI %d already routed to port %d", v, prev)
	}
	sw.routes[v] = port
	return nil
}

// RouteFrom installs (in, v) → out: cells carrying VCI v that arrive on
// input port in are forwarded to out, overriding any wildcard Route for
// v. Like Route, re-registering an installed (in, v) pair is an error.
// Per-input routes are what a bidirectional connection on a single VCI
// needs: RouteFrom(a, v, b) plus RouteFrom(b, v, a) carries data one
// way and acknowledgements the other.
func (sw *Switch) RouteFrom(in int, v VCI, out int) error {
	if in < 0 || in >= len(sw.ports) {
		return fmt.Errorf("atm: route from port %d out of range [0,%d)", in, len(sw.ports))
	}
	if out < 0 || out >= len(sw.ports) {
		return fmt.Errorf("atm: route %d → port %d out of range [0,%d)", v, out, len(sw.ports))
	}
	if sw.inRoutes == nil {
		sw.inRoutes = make(map[inPortVCI]int)
	}
	key := inPortVCI{in, v}
	if prev, ok := sw.inRoutes[key]; ok {
		return fmt.Errorf("atm: VCI %d from port %d already routed to port %d", v, in, prev)
	}
	sw.inRoutes[key] = out
	return nil
}

// forward runs in link-delivery (event) context: route the cell and
// hand its record to the output port's virtual queue, which admits or
// drops it. It must not block — exactly the discipline of the boards'
// own receive FIFOs.
func (sw *Switch) forward(inPort int, c *Cell, lane int) {
	if op := sw.route(inPort, c); op != nil {
		sw.trainForward(op, c, lane)
	}
}

// route counts a cell arriving on input port inPort and looks its VCI
// up: it returns the output port, or nil after dropping an unrouted
// cell, whose record goes back to the store.
func (sw *Switch) route(inPort int, c *Cell) *SwitchPort {
	ip := sw.ports[inPort]
	ip.stats.In++
	out, ok := sw.routes[c.VCI]
	if sw.inRoutes != nil {
		if o, found := sw.inRoutes[inPortVCI{inPort, c.VCI}]; found {
			out, ok = o, true
		}
	}
	if !ok {
		ip.stats.NoRoute++
		if sw.eng.Recording() {
			sw.eng.Emit(sim.TraceEvent{At: sw.eng.Now(), Ph: 'i', Comp: ip.comp, Cat: sim.CatDrop, Name: "no-route", Arg: int64(c.VCI)})
		}
		sw.cells.Put(c)
		return nil
	}
	return sw.ports[out]
}

// admit is the switch's one admission rule, which the per-cell
// reference machine (switch_ref_test.go) shares: it decides the fate
// of a cell arriving at output port op, whose queue holds occ cells,
// and reports whether the cell enters. A full queue drops it, and its
// record goes back to the store. Otherwise it enters, CE-marked if occ
// has reached MarkThreshold, and occ+1 is the new occupancy.
func (sw *Switch) admit(op *SwitchPort, c *Cell, occ int) bool {
	if occ >= sw.cfg.QueueCells {
		op.stats.Dropped++
		if sw.eng.Recording() {
			sw.eng.Emit(sim.TraceEvent{At: sw.eng.Now(), Ph: 'i', Comp: op.comp, Cat: sim.CatDrop, Name: "queue-overflow", Arg: int64(c.VCI)})
		}
		sw.cells.Put(c)
		return false
	}
	if t := sw.cfg.MarkThreshold; t > 0 && occ >= t {
		c.CE = true
		op.stats.Marked++
	}
	n := int64(occ + 1)
	op.stats.HighWater = max(op.stats.HighWater, n)
	if sw.eng.Recording() {
		sw.eng.Emit(sim.TraceEvent{At: sw.eng.Now(), Ph: 'C', Comp: op.comp, Cat: sim.CatQueue, Name: "queue", Arg: n})
	}
	return true
}

// trainForward is the zero-alloc fast path: instead of enqueueing an
// event-driven cell, compute the cell's entire future arithmetically —
// dequeue instant, link accept instant, delivery stamp — and hand it
// to the egress link as a scheduled send. The recurrence mirrors the
// per-cell queue/arbiter machine kept as the reference in
// switch_ref_test.go exactly: the single egress arbiter pops the next
// cell as soon as it is both present (arrival a) and the arbiter is
// free (previous accept u), so pop = max(u_prev, a); the link then
// reports the accept instant for this cell.
//
// Tie discipline: at any tied instant the engine executes link
// arrivals before the arbiter's wakeups (an arbiter woken by a
// Cond.Signal at t runs via an event scheduled *at* t, after the
// arrival that signalled it). Hence settling at an arrival uses strict
// inequalities — a pop or accept stamped exactly now has not happened
// yet — while settling after the run quiesces uses ≤.
//
// The port emits the reference machine's trace events: admit's at
// arrival, and each pop's queue counter when settle passes it — at the
// next arrival, or when Stats or QueueLen settles the port at quiesce.
// A trace read before that lacks the pops since the last arrival.
func (sw *Switch) trainForward(op *SwitchPort, c *Cell, lane int) {
	now := sw.eng.Now()
	op.settle(now, false)
	// The occupancy the reference machine's queue would hold, so the
	// two drop and mark the same cells.
	if !sw.admit(op, c, op.vqLen-op.vqPop) {
		return
	}
	pop := max(op.vBusy, now)
	acc := op.out.Link(lane).SendScheduled(pop, c)
	op.vBusy = acc
	op.vqPush(vPoint{enq: now, pop: pop, acc: acc})
}

// settle advances the port's virtual bookkeeping to now. closed=false
// means "called from an arrival event at now": pops and accepts
// stamped exactly now have not executed yet, so thresholds are strict.
// closed=true means the engine has quiesced at now and everything
// stamped ≤ now is done. Idempotent; all cursors are monotone.
func (pt *SwitchPort) settle(now sim.Time, closed bool) {
	for pt.vqPop < pt.vqLen {
		e := pt.vqAt(pt.vqPop)
		if e.pop > now || (!closed && e.pop == now) {
			break
		}
		if pt.mQDelay != nil {
			pt.mQDelay.Observe((e.pop - e.enq).Microseconds())
		}
		pt.vqPop++
		if pt.eng.Recording() {
			// The cells left in the queue after this pop: the later ones
			// that had arrived by then, those arriving at the pop's own
			// instant included (arrivals precede the arbiter).
			n := int64(0)
			for j := pt.vqPop; j < pt.vqLen && pt.vqAt(j).enq <= e.pop; j++ {
				n++
			}
			pt.eng.Emit(sim.TraceEvent{At: e.pop, Ph: 'C', Comp: pt.comp, Cat: sim.CatQueue, Name: "queue", Arg: n})
		}
	}
	for pt.vqLen > 0 {
		e := pt.vqAt(0)
		if e.acc > now || (!closed && e.acc == now) {
			break
		}
		// acc ≥ pop, so a retiring entry has already passed the pop
		// cursor above; shift it with the head.
		pt.stats.Forwarded++
		pt.vqHead++
		if pt.vqHead == len(pt.vq) {
			pt.vqHead = 0
		}
		pt.vqLen--
		pt.vqPop--
	}
}

// vqAt returns the i-th pending vPoint in arrival order.
func (pt *SwitchPort) vqAt(i int) *vPoint {
	j := pt.vqHead + i
	if j >= len(pt.vq) {
		j -= len(pt.vq)
	}
	return &pt.vq[j]
}

func (pt *SwitchPort) vqPush(e vPoint) {
	if pt.vqLen == len(pt.vq) {
		// Unreachable if the occupancy model is right; grow rather than
		// corrupt the ring so a bug surfaces as a test diff, not chaos.
		grown := make([]vPoint, 2*len(pt.vq))
		for i := 0; i < pt.vqLen; i++ {
			grown[i] = *pt.vqAt(i)
		}
		pt.vq = grown
		pt.vqHead = 0
	}
	*pt.vqAt(pt.vqLen) = e
	pt.vqLen++
}

// Stats sums the per-port counters. The same snapshot discipline as
// SwitchPort.Stats applies.
func (sw *Switch) Stats() SwitchStats {
	var s SwitchStats
	for _, pt := range sw.ports {
		ps := pt.Stats()
		s.In += ps.In
		s.NoRoute += ps.NoRoute
		s.Forwarded += ps.Forwarded
		s.Dropped += ps.Dropped
		s.Marked += ps.Marked
		if ps.HighWater > s.HighWater {
			s.HighWater = ps.HighWater
		}
	}
	return s
}

// RegisterMetrics registers the switch's telemetry under prefix: per
// port, the input/route/forward/drop counters and queue high-water as
// snapshot-time samples of the existing stats (zero hot-path cost),
// plus a live egress queueing-delay sketch (µs, p50/p90/p99). All are
// pure functions of simulated behaviour, hence canonical. Call before
// the run starts; a nil registry is a no-op.
func (sw *Switch) RegisterMetrics(r *metrics.Registry, prefix string) {
	if r == nil {
		return
	}
	for _, pt := range sw.ports {
		pt := pt
		p := fmt.Sprintf("%s/port%d", prefix, pt.index)
		// Read through Stats(), not pt.stats: in train mode Stats settles
		// the virtual bookkeeping — crediting Forwarded and flushing
		// pending queue-delay observations into the sketch — and samples
		// are evaluated in registration order, before the sketch is read.
		r.Sample(p+"/in", metrics.KindCounter, func() int64 { return pt.Stats().In })
		r.Sample(p+"/no_route", metrics.KindCounter, func() int64 { return pt.Stats().NoRoute })
		r.Sample(p+"/forwarded", metrics.KindCounter, func() int64 { return pt.Stats().Forwarded })
		r.Sample(p+"/dropped", metrics.KindCounter, func() int64 { return pt.Stats().Dropped })
		if sw.cfg.MarkThreshold > 0 {
			// Registered only when marking is on, so the committed
			// BENCH_metrics.json snapshots (taken with marking off) keep
			// their exact name set.
			r.Sample(p+"/marked", metrics.KindCounter, func() int64 { return pt.Stats().Marked })
		}
		r.Sample(p+"/queue_high_water", metrics.KindHighWater, func() int64 { return pt.Stats().HighWater })
		pt.mQDelay = r.Quantiles(p+"/queue_delay_us", 0.5, 0.9, 0.99)
	}
}
