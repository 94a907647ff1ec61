package atm

import (
	"fmt"

	"repro/internal/fault"
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
	// Fault injects faults at every output port's queue entry (one
	// injector per port, each with its own derived RNG stream) —
	// modelling a flaky fabric element rather than a flaky link. The
	// per-lane link fault plane is configured on Link.Fault instead.
	Fault *fault.Config
	// MarkThreshold enables ECN-style congestion marking: when a cell
	// enters an output queue whose occupancy (cells ahead of it) is at
	// least this threshold, the switch sets the cell's CE bit and counts
	// it in the port's Marked statistic. Zero disables marking (the
	// default — legacy behavior). The train-forwarding fast path and the
	// per-cell fallback mark identically; the differential fuzz oracle
	// pins this.
	MarkThreshold int
	// PerCellFabric forces every output port onto the per-cell
	// queue/arbiter machine even when the train-forwarding fast path
	// would apply. The two machines produce byte-identical results; the
	// knob exists so CI can diff them and so anomalies can be bisected.
	PerCellFabric bool
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

// laneCell is a queued cell tagged with its stripe lane. enq is the
// enqueue instant, stamped only while the port's queue-delay sketch is
// live (telemetry must not change struct traffic when disabled — the
// extra field itself is inert).
type laneCell struct {
	c    Cell
	lane int
	enq  sim.Time
}

// Port forwarding modes. A port latches its mode on the first cell
// routed to it and never mixes machines afterwards: train mode
// precomputes the whole queue→arbiter→link future of each cell at
// arrival, so a mid-run switch to the event-driven machine would
// double-account the in-flight tail.
const (
	vModeUnlatched = int8(iota)
	vModeTrain
	vModePerCell
)

// vPoint is the precomputed future of one virtually-forwarded cell:
// enq is its arrival (enqueue) instant, pop the instant the egress
// arbiter dequeues it, acc the instant the egress link accepts it (the
// instant the arbiter's blocking Send would have returned and counted
// it Forwarded). Within one port pop and acc are nondecreasing in
// arrival order, which is what lets a ring with monotone settle
// cursors replay the per-cell machine's bookkeeping exactly.
type vPoint struct {
	enq sim.Time
	pop sim.Time
	acc sim.Time
}

// SwitchPort is one bidirectional port of a Switch: an ingress stripe
// group the attached node transmits on, an egress stripe group it
// receives on, and a bounded FIFO cell queue feeding the egress lanes.
type SwitchPort struct {
	index int
	eng   *sim.Engine
	// now is the quiesced-clock source for snapshot settling (Stats,
	// QueueLen): the engine clock for a serial fabric, the shard group's
	// latest clock for a sharded one. The distinction matters at a
	// horizon cut — the fabric engine's own clock stops at its last
	// executed event, which in a sharded run can lag the global quiesce
	// instant, and settling short would credit fewer in-flight forwards
	// than the serial run counts.
	now   func() sim.Time
	comp  string // trace track label, precomputed (Emit stays alloc-free)
	in    *StripeGroup
	out   *StripeGroup
	queue *sim.Chan[laneCell]
	stats SwitchPortStats
	inj   *fault.Injector // output-side injector (nil when off)

	// mQDelay is the egress queueing-delay sketch (µs), nil unless
	// RegisterMetrics installed one.
	mQDelay *metrics.Sketch

	// Train-forwarding (virtual egress) state; see Switch.trainForward.
	vMode int8
	vBusy sim.Time // acc of the last virtually-sent cell (arbiter busy-until)
	// vq is a ring of pending vPoints in arrival order. Entries before
	// the vqPop cursor have been virtually dequeued, before vqObs have
	// fed the queue-delay sketch; entries retire off the head once
	// their acc instant has passed and Forwarded is credited.
	vq            []vPoint
	vqHead, vqLen int
	vqPop, vqObs  int
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
	if pt.vMode == vModeTrain {
		// Credit every virtual forward whose accept instant has passed:
		// the per-cell machine counts Forwarded when the arbiter's Send
		// returns, so a horizon-cut run must not count the in-flight tail.
		pt.settle(pt.now(), true)
	}
	return pt.stats
}

// Injector exposes the port's output-side fault injector (nil when
// fault injection is off).
func (pt *SwitchPort) Injector() *fault.Injector { return pt.inj }

// QueueLen reports the cells currently waiting in the output queue. In
// train mode the queue is virtual: the count is the number of accepted
// cells whose precomputed dequeue instant is still ahead of the
// engine's clock — identical to what the event-driven queue would hold
// at the same quiesced instant.
func (pt *SwitchPort) QueueLen() int {
	if pt.vMode == vModeTrain {
		pt.settle(pt.now(), true)
		return pt.vqLen - pt.vqPop
	}
	return pt.queue.Len()
}

// drain is the port's egress arbiter: cells leave the bounded queue in
// strict FIFO arrival order (no per-flow scheduling) and are serialized
// onto the lane they arrived on. Sending blocks while that lane's
// transmit FIFO is full, so a congested lane backpressures the queue —
// head-of-line blocking included, as in a real FIFO output port.
func (pt *SwitchPort) drain(p *sim.Proc) {
	for {
		lc := pt.queue.Recv(p)
		if pt.mQDelay != nil {
			pt.mQDelay.Observe((pt.eng.Now() - lc.enq).Microseconds())
		}
		if pt.eng.Recording() {
			pt.eng.Emit(sim.TraceEvent{At: pt.eng.Now(), Ph: 'C', Comp: pt.comp, Cat: sim.CatQueue, Name: "queue", Arg: int64(pt.queue.Len())})
		}
		pt.out.Link(lc.lane).Send(p, lc.c)
		pt.stats.Forwarded++
	}
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

// NewSwitch creates a switch with nports ports and starts one egress
// arbiter process per port.
func NewSwitch(e *sim.Engine, nports int, cfg SwitchConfig) *Switch {
	return newSwitch(nil, e, nil, nports, cfg)
}

// NewShardedSwitch creates a switch whose fabric runs on engine e of
// group g while the node attached to port i lives on nodeEng[i]. Ports
// whose node engine is e itself get ordinary local links; every other
// port's ingress and egress stripe groups become cross-shard links, so
// the port is a shard boundary with the link PropDelay as lookahead.
func NewShardedSwitch(g *sim.ShardGroup, e *sim.Engine, nodeEng []*sim.Engine, cfg SwitchConfig) *Switch {
	return newSwitch(g, e, nodeEng, len(nodeEng), cfg)
}

// newSwitch is the shared builder. nodeEng may be nil (all ports local
// to e); otherwise nodeEng[i] is port i's far-end engine.
func newSwitch(g *sim.ShardGroup, e *sim.Engine, nodeEng []*sim.Engine, nports int, cfg SwitchConfig) *Switch {
	if nports < 2 {
		panic("atm: a switch needs at least 2 ports")
	}
	cfg = cfg.withDefaults()
	sw := &Switch{eng: e, cfg: cfg, routes: make(map[VCI]int)}
	// nextXID numbers the fabric's local links for the canonical
	// tie-break. Without a shard group it mirrors the ShardGroup.NextXID
	// sequence, so a link gets the same channel id at any shard count.
	var xid uint64
	nextXID := func() uint64 { xid++; return xid }
	if g != nil {
		nextXID = g.NextXID
	}
	for i := 0; i < nports; i++ {
		inCfg, outCfg := cfg.Link, cfg.Link
		if site := cfg.Link.FaultSite; site == "" {
			// Give every lane of every port its own injection stream.
			inCfg.FaultSite = fmt.Sprintf("sw/in%d", i)
			outCfg.FaultSite = fmt.Sprintf("sw/out%d", i)
		} else {
			inCfg.FaultSite = fmt.Sprintf("%s/in%d", site, i)
			outCfg.FaultSite = fmt.Sprintf("%s/out%d", site, i)
		}
		far := e
		if nodeEng != nil && nodeEng[i] != nil {
			far = nodeEng[i]
		}
		pt := &SwitchPort{
			index: i,
			eng:   e,
			now:   e.Now,
			comp:  fmt.Sprintf("sw-port%d", i),
			queue: sim.NewChan[laneCell](e, cfg.QueueCells),
			inj:   fault.New(e, fmt.Sprintf("sw/port%d", i), cfg.Fault),
		}
		if g != nil {
			pt.now = g.Now
		}
		if far == e {
			pt.in = NewStripeGroup(e, cfg.Width, inCfg)
			pt.out = NewStripeGroup(e, cfg.Width, outCfg)
			// Stamp the local links with the channel ids the cross-shard
			// constructor would have assigned (same construction order:
			// ingress lanes then egress lanes, port by port). Delivery
			// tie-break order among the fabric's links is then a function
			// of the topology alone — a serial run, a sharded run, and a
			// run where this port happens to share the fabric's shard all
			// order same-instant cells from different links identically.
			// Without this, symmetric fan-in workloads (whose senders
			// phase-lock on the egress serialization grid) diverge across
			// shard counts.
			pt.in.Stamp(nextXID)
			pt.out.Stamp(nextXID)
		} else {
			// Ingress carries node → switch, egress switch → node. The
			// node's board paces sends on its own shard; deliveries into
			// sw.forward and the board's receive path cross at barriers.
			pt.in = NewCrossStripeGroup(g, far, e, cfg.Width, inCfg)
			pt.out = NewCrossStripeGroup(g, e, far, cfg.Width, outCfg)
		}
		in := i
		pt.in.SetReceiver(func(c Cell, lane int) { sw.forward(in, c, lane) })
		sw.ports = append(sw.ports, pt)
		e.Go(fmt.Sprintf("switch-port%d", i), pt.drain)
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

// Unroute removes v's route. Removing an unrouted VCI is a no-op.
func (sw *Switch) Unroute(v VCI) { delete(sw.routes, v) }

// UnrouteFrom removes the per-input route (in, v), if any.
func (sw *Switch) UnrouteFrom(in int, v VCI) { delete(sw.inRoutes, inPortVCI{in, v}) }

// RouteOf reports the output port v is routed to.
func (sw *Switch) RouteOf(v VCI) (port int, ok bool) {
	port, ok = sw.routes[v]
	return port, ok
}

// forward runs in link-delivery (event) context: look the cell's VCI up
// and enqueue it on the output port, dropping on overflow. It must not
// block, so the queue is entered with TrySend — exactly the discipline
// of the boards' own receive FIFOs.
func (sw *Switch) forward(inPort int, c Cell, lane int) {
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
		return
	}
	op := sw.ports[out]
	if op.vMode == vModeUnlatched {
		op.latchMode(sw.cfg.PerCellFabric)
	}
	if op.vMode == vModeTrain {
		sw.trainForward(op, c, lane)
		return
	}
	act := op.inj.Apply(sw.eng.Now())
	if act.Drop {
		return // counted by the injector
	}
	if act.CorruptBit >= 0 && c.Len > 0 {
		bit := act.CorruptBit % (8 * c.Len)
		c.Payload[bit/8] ^= 1 << (bit % 8)
	}
	lc := laneCell{c: c, lane: lane}
	if act.Delay > 0 {
		// Bounded reordering: the delayed cell re-enters the queue later,
		// letting cells behind it overtake.
		sw.eng.AfterCall(act.Delay, delayedEnqueueCB, &delayedCell{sw: sw, op: op, lc: lc})
	} else {
		sw.enqueue(op, lc)
	}
	if act.Duplicate {
		sw.enqueue(op, lc)
	}
}

// enqueue enters one cell into an output port's bounded queue (event
// context, TrySend discipline), maintaining the drop and occupancy
// high-water counters.
func (sw *Switch) enqueue(op *SwitchPort, lc laneCell) {
	if op.mQDelay != nil {
		lc.enq = sw.eng.Now()
	}
	// CE decision uses the occupancy ahead of this cell, the same value
	// the train path derives from its settled cursors; the mark goes on
	// before TrySend copies the cell in, but is only counted when the
	// cell is actually accepted (a full queue drops, never marks).
	marked := false
	if t := sw.cfg.MarkThreshold; t > 0 && op.queue.Len() >= t {
		lc.c.CE = true
		marked = true
	}
	if !op.queue.TrySend(lc) {
		op.stats.Dropped++
		if sw.eng.Recording() {
			sw.eng.Emit(sim.TraceEvent{At: sw.eng.Now(), Ph: 'i', Comp: op.comp, Cat: sim.CatDrop, Name: "queue-overflow", Arg: int64(lc.c.VCI)})
		}
		return
	}
	if marked {
		op.stats.Marked++
	}
	if n := int64(op.queue.Len()); n > op.stats.HighWater {
		op.stats.HighWater = n
	}
	if sw.eng.Recording() {
		sw.eng.Emit(sim.TraceEvent{At: sw.eng.Now(), Ph: 'C', Comp: op.comp, Cat: sim.CatQueue, Name: "queue", Arg: int64(op.queue.Len())})
	}
}

// latchMode decides, once per port, whether cells routed to this port
// take the train-forwarding fast path or the per-cell queue machine.
// Anything that observes or perturbs cells one at a time — an
// output-side fault injector, trace recording, or an egress link that
// draws randomness per cell — forces per-cell mode; so does the
// explicit PerCellFabric knob.
func (pt *SwitchPort) latchMode(forcePerCell bool) {
	pt.vMode = vModePerCell
	if forcePerCell || pt.inj != nil || pt.eng.Recording() {
		return
	}
	for _, l := range pt.out.links {
		if !l.det {
			return
		}
	}
	pt.vMode = vModeTrain
	// Capacity: the virtual queue holds at most QueueCells undequeued
	// entries plus one dequeued-but-unaccepted straggler; headroom
	// beyond that only guards the ring against a model bug.
	pt.vq = make([]vPoint, pt.queue.Cap()+8)
}

// trainForward is the zero-alloc fast path: instead of enqueueing an
// event-driven cell, compute the cell's entire future arithmetically —
// dequeue instant, link accept instant, delivery stamp — and hand it
// to the egress link as a scheduled send. The recurrence mirrors the
// per-cell machine exactly: the single egress arbiter pops the next
// cell as soon as it is both present (arrival a) and the arbiter is
// free (previous accept u), so pop = max(u_prev, a); the link then
// reports the accept instant for this cell.
//
// Tie discipline: at any tied instant the engine executes link
// arrivals before the arbiter's resume events (a proc resumed by a
// Cond.Signal at t runs via an event scheduled *at* t, after the
// arrival that signalled it). Hence settling at an arrival uses strict
// inequalities — a pop or accept stamped exactly now has not happened
// yet — while settling after the run quiesces uses ≤.
func (sw *Switch) trainForward(op *SwitchPort, c Cell, lane int) {
	now := sw.eng.Now()
	op.settle(now, false)
	occ := op.vqLen - op.vqPop
	if occ >= sw.cfg.QueueCells {
		op.stats.Dropped++
		// Recording is off in train mode (latch condition), so the
		// per-cell drop path's trace emission has no counterpart.
		return
	}
	if t := sw.cfg.MarkThreshold; t > 0 && occ >= t {
		// Same occupancy value the per-cell machine would see at its
		// TrySend, so the two fabrics mark the same cells. Mutate before
		// SendScheduled — the cell travels by value from here on.
		c.CE = true
		op.stats.Marked++
	}
	pop := op.vBusy
	if now > pop {
		pop = now
	}
	acc := op.out.Link(lane).SendScheduled(pop, c)
	op.vBusy = acc
	op.vqPush(vPoint{enq: now, pop: pop, acc: acc})
	if n := int64(occ + 1); n > op.stats.HighWater {
		op.stats.HighWater = n
	}
}

// settle advances the port's virtual bookkeeping to now. closed=false
// means "called from an arrival event at now": pops and accepts
// stamped exactly now have not executed yet, so thresholds are strict.
// closed=true means the engine has quiesced at now and everything
// stamped ≤ now is done. Idempotent; all cursors are monotone.
func (pt *SwitchPort) settle(now sim.Time, closed bool) {
	for pt.vqObs < pt.vqLen {
		e := pt.vqAt(pt.vqObs)
		if e.pop > now || (!closed && e.pop == now) {
			break
		}
		if pt.mQDelay != nil {
			pt.mQDelay.Observe((e.pop - e.enq).Microseconds())
		}
		pt.vqObs++
	}
	for pt.vqPop < pt.vqLen {
		e := pt.vqAt(pt.vqPop)
		if e.pop > now || (!closed && e.pop == now) {
			break
		}
		pt.vqPop++
	}
	for pt.vqLen > 0 {
		e := pt.vqAt(0)
		if e.acc > now || (!closed && e.acc == now) {
			break
		}
		// acc ≥ pop, so a retiring entry has already passed both
		// cursors above; shift them with the head.
		pt.stats.Forwarded++
		pt.vqHead++
		if pt.vqHead == len(pt.vq) {
			pt.vqHead = 0
		}
		pt.vqLen--
		pt.vqPop--
		pt.vqObs--
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

// delayedCell carries a reorder-delayed cell to its deferred enqueue.
type delayedCell struct {
	sw *Switch
	op *SwitchPort
	lc laneCell
}

func delayedEnqueueCB(a any) {
	d := a.(*delayedCell)
	d.sw.enqueue(d.op, d.lc)
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

// FaultStats sums the per-port injector counters (zero when fault
// injection is off).
func (sw *Switch) FaultStats() fault.Stats {
	var s fault.Stats
	for _, pt := range sw.ports {
		s.Add(pt.inj.Stats())
	}
	return s
}
