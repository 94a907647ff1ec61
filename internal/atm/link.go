package atm

import (
	"math/rand"
	"strconv"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
)

// DefaultLinkRate is the line rate of one physical link: 155 Mbps
// (OC-3c). Four of them stripe into the 622 Mbps logical channel.
const DefaultLinkRate = 155_000_000

// SkewModel produces the extra delay experienced by each cell on each
// physical link. Per-link FIFO order is enforced by the Link regardless
// of the delays returned, matching §2.6: "cells transmitted on a given
// physical link will arrive in order relative to each other, but may be
// delayed relative to cells sent on other links."
type SkewModel interface {
	// Delay returns the additional latency for the next cell on link.
	Delay(link int, rng *rand.Rand) time.Duration
}

// NoSkew delays nothing: all links behave identically (the AURORA
// single-fiber case eliminating path-length skew).
type NoSkew struct{}

// Delay implements SkewModel.
func (NoSkew) Delay(int, *rand.Rand) time.Duration { return 0 }

// ConstantSkew gives each link a fixed extra delay — differing physical
// path lengths or multiplexing equipment (§2.6 causes 1 and 2).
type ConstantSkew struct {
	PerLink []time.Duration
}

// Delay implements SkewModel.
func (s ConstantSkew) Delay(link int, _ *rand.Rand) time.Duration {
	if link < len(s.PerLink) {
		return s.PerLink[link]
	}
	return 0
}

// QueueingSkew adds a uniformly distributed random delay in [0, Max] per
// cell — distinct queueing delays at distinct switch ports (§2.6 cause
// 3, the unbounded one).
type QueueingSkew struct {
	Max time.Duration
}

// Delay implements SkewModel.
func (s QueueingSkew) Delay(_ int, rng *rand.Rand) time.Duration {
	if s.Max <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(s.Max) + 1))
}

// linkFIFODepth is a link's transmit-side FIFO depth in cells.
const linkFIFODepth = 4

// LinkConfig configures one physical link.
type LinkConfig struct {
	RateBps   int64         // line rate (default DefaultLinkRate)
	PropDelay time.Duration // propagation delay (default 1µs)
	Index     int           // link index within its stripe group
	Skew      SkewModel     // nil means NoSkew
	// LossRate is the probability that a cell is lost in the network
	// (drawn per cell from the engine's seeded source). The paper's
	// premise: "the underlying network is not reliable" (§2.3).
	LossRate float64
	// Fault composes the full fault plane — burst loss, corruption,
	// duplication, bounded reordering, down windows — on this link. The
	// injector draws from a stream derived from (seed, FaultSite, link
	// index), never from the engine's main RNG, so enabling it leaves
	// the LossRate/skew draw order untouched.
	Fault *fault.Config
	// FaultSite names the injection site (the link index is appended);
	// distinct links sharing a config must get distinct sites.
	FaultSite string
}

// deterministic reports whether the configuration draws no randomness
// per cell, so the link can compute every serialization and delivery
// time arithmetically. Only the skew models known to ignore the RNG
// qualify; a custom SkewModel conservatively falls back to the paced
// per-cell event machine.
func (cfg LinkConfig) deterministic() bool {
	if cfg.LossRate > 0 || cfg.Fault != nil {
		return false
	}
	switch cfg.Skew.(type) {
	case NoSkew, ConstantSkew:
		return true
	}
	return false
}

// DrawsEngineRand reports whether the configuration consumes the
// engine's shared RNG per cell: a LossRate coin, or a skew model not
// known to ignore the RNG (nil means the NoSkew default). Such links
// cannot cross shards — the shared stream is drawn in delivery order,
// which depends on the partition — so the partitioner uses this to
// refuse the topology rather than silently diverge. Fault injectors do
// not count: they draw from site-derived streams that are identical at
// any shard count.
func (cfg LinkConfig) DrawsEngineRand() bool {
	if cfg.LossRate > 0 {
		return true
	}
	switch cfg.Skew.(type) {
	case nil, NoSkew, ConstantSkew:
		return false
	}
	return true
}

// LinkStats counts link activity. Sent + Duplicated = Delivered + Lost
// once the link drains (every accepted or injector-cloned cell is
// eventually delivered or lost).
type LinkStats struct {
	Sent       int64
	Delivered  int64
	Lost       int64
	Duplicated int64 // injector-cloned cells added to the stream
}

// linkCell is one in-flight cell of a deterministic link's train:
// serStart is the instant its transmit-FIFO slot frees (when the old
// pacing process would have dequeued it to start serialization), and
// deliver is the instant the receiver callback runs. accept is the
// instant the sender's Send returned — for a proc sender that is the
// push instant, but a virtual sender (SendScheduled) may push a cell
// whose accept lies in the future, and the walker must not claim the
// delivery event before a real sender would have scheduled it.
// schedAt/seq are the cell's canonical delivery stamp, filled only on
// stamped links (Link.xid != 0); see the stamped-link comment on Link.
type linkCell struct {
	c        Cell
	serStart sim.Time
	deliver  sim.Time
	accept   sim.Time
	schedAt  sim.Time
	seq      uint64
}

// Link is one unidirectional physical link. Cells submitted with Send
// are paced out at line rate and delivered, in order, to the receiver
// callback after propagation delay plus model skew.
//
// When the configuration is loss-free and its skew model draws no
// randomness, the link runs in cell-train mode: serialization times are
// computed arithmetically at Send, queued cells form a train of
// precomputed delivery instants, and a single walker event re-arms
// itself along the train — no pacing goroutine, no per-cell scheduling
// events, and the same simulated timings as the paced machine. Lossy or
// randomly skewed configurations fall back to a per-cell pacing process
// so the RNG is consumed cell by cell in the original draw order.
type Link struct {
	eng         *sim.Engine
	cfg         LinkConfig
	cellTime    time.Duration
	lastDeliver sim.Time
	deliver     func(c Cell, link int)
	stats       LinkStats
	inj         *fault.Injector // nil unless cfg.Fault injects something

	// Paced (fallback) mode.
	queue *sim.Chan[Cell]

	// Cell-train (deterministic) mode.
	det         bool
	train       []linkCell // ring buffer, grown on demand
	head, count int
	frontier    sim.Time // serialization end of the newest accepted cell
	walkerArmed bool
	slotArmed   bool
	armPending  bool // arm event scheduled at the next accept instant
	notFull     *sim.Cond

	// Stamped mode (xid != 0, local deterministic links only): delivery
	// events carry an explicit canonical stamp (schedAt, xid, seq) via
	// InjectStamped instead of the engine's implicit scheduling stamp.
	//
	// Why: at a tied delivery instant the engine orders events by
	// (at, schedAt, xid, seq). Implicitly stamped local events tie-break
	// by global scheduling order (xid 0, engine seq), which depends on
	// how the topology is partitioned; cross-shard events tie-break by
	// their channel id. A workload that drives many symmetric senders
	// into one switch port — fan-in incast is the canonical case — ties
	// constantly (senders re-phase-lock on the shared egress
	// serialization grid even when started staggered), so the serial and
	// sharded runs diverge. Stamping local links with the same
	// construction-order channel ids the cross-shard path uses makes the
	// tie-break a pure function of the topology: byte-identical behavior
	// at any shard count. The stamp mimics the serial machine exactly
	// (schedAt = max(accept, previous delivery), per-link monotone seq),
	// so a stamped link in isolation times identically to an unstamped
	// one; only tie ORDER against other links is pinned.
	xid  uint64
	lseq uint64 // per-link stamp counter (monotone, matches xlink.xseq)

	// Cross-shard half (nil for a link local to one engine). See xlink.go.
	x *xlink
}

// NewLink creates a link; lossy or randomly skewed configurations also
// start a pacing process.
func NewLink(e *sim.Engine, cfg LinkConfig) *Link {
	if cfg.RateBps == 0 {
		cfg.RateBps = DefaultLinkRate
	}
	if cfg.PropDelay == 0 {
		cfg.PropDelay = time.Microsecond
	}
	if cfg.Skew == nil {
		cfg.Skew = NoSkew{}
	}
	l := &Link{eng: e, cfg: cfg}
	l.cellTime = time.Duration(int64(CellSize*8) * int64(time.Second) / cfg.RateBps)
	if cfg.Fault != nil {
		site := cfg.FaultSite
		if site == "" {
			site = "link"
		}
		l.inj = fault.New(e, site+"/l"+strconv.Itoa(cfg.Index), cfg.Fault)
	}
	if cfg.deterministic() {
		l.det = true
		l.train = make([]linkCell, linkFIFODepth+4)
		l.notFull = sim.NewCond(e)
		return l
	}
	l.queue = sim.NewChan[Cell](e, linkFIFODepth)
	e.Go("link-pacer", l.pace)
	return l
}

// CellTime returns the serialization time of one cell at line rate.
func (l *Link) CellTime() time.Duration { return l.cellTime }

// SetReceiver installs the delivery callback. It runs in engine (event)
// context, so it must not block; typically it pushes into the receiving
// board's header FIFO with TrySend.
func (l *Link) SetReceiver(fn func(c Cell, link int)) { l.deliver = fn }

// Send submits a cell for transmission, blocking p while the link's
// transmit FIFO is full — the backpressure the board's segmentation
// loop experiences.
func (l *Link) Send(p *sim.Proc, c Cell) {
	if !l.det {
		l.queue.Send(p, c)
		l.stats.Sent++
		return
	}
	// The transmit FIFO is virtual: a queued cell occupies a slot from
	// Send until its serialization starts, exactly when the paced
	// machine's dequeue would have freed it.
	if l.x != nil {
		// No local walker pops delivered entries on a cross-shard link;
		// prune the slots that have already freed instead.
		l.purgeServed(l.eng.Now())
	}
	for l.queued(l.eng.Now()) >= linkFIFODepth {
		l.armSlotWake()
		l.notFull.Wait(p)
	}
	now := l.eng.Now()
	serStart := now
	if l.frontier > serStart {
		serStart = l.frontier
	}
	serEnd := serStart.Add(l.cellTime)
	l.frontier = serEnd
	// Skew models in train mode never draw; passing a nil RNG turns any
	// violation of that invariant into a loud failure instead of silent
	// nondeterminism.
	at := serEnd.Add(l.cfg.PropDelay + l.cfg.Skew.Delay(l.cfg.Index, nil))
	prevLast := l.lastDeliver
	if at <= l.lastDeliver {
		at = l.lastDeliver + 1 // preserve per-link FIFO order
	}
	l.lastDeliver = at
	l.stats.Sent++
	if l.x != nil {
		// The occupancy ring keeps only the timing of the slot; the cell
		// itself travels through the cross-shard buffer.
		l.push(linkCell{serStart: serStart, deliver: at, accept: now})
		l.sendRemote(c, at, prevLast)
	} else if l.xid != 0 {
		l.pushStamped(c, serStart, at, now, prevLast)
	} else {
		l.push(linkCell{c: c, serStart: serStart, deliver: at, accept: now})
		if !l.walkerArmed && !l.armPending {
			l.walkerArmed = true
			l.eng.AtCall(at, linkDeliverCB, l)
		}
	}
	if l.notFull.Waiting() > 0 {
		l.armSlotWake()
	}
}

// pushStamped is the stamped-local Send/SendScheduled tail: push the
// cell with its canonical stamp (the same schedAt mimicry sendRemote
// performs) and make sure a stamped walker event is pending. The
// walker invariant in stamped mode is simple — armed iff the train is
// non-empty — because the stamp is explicit, so arming never has to
// wait for the accept instant the way the implicit machine does.
func (l *Link) pushStamped(c Cell, serStart, at, accept, prevLast sim.Time) {
	schedAt := accept
	if prevLast > schedAt {
		schedAt = prevLast
	}
	l.lseq++
	l.push(linkCell{c: c, serStart: serStart, deliver: at, accept: accept, schedAt: schedAt, seq: l.lseq})
	if !l.walkerArmed {
		l.walkerArmed = true
		head := l.at(0)
		l.eng.InjectStamped(head.deliver, head.schedAt, l.xid, head.seq, linkDeliverCB, l)
	}
}

// SendScheduled transmits a cell on behalf of a virtual sender — one
// whose dequeue instant t was computed arithmetically rather than
// reached by a blocked proc. t must be at or after the engine's current
// instant and nondecreasing across calls, and the caller must be the
// link's only sender (the switch's egress arbiter is; boards are not).
// The link performs exactly the state transitions Send would have
// performed had a proc executed it at t — virtual-FIFO blocking,
// serialization pacing, the per-link FIFO-order bump, walker arming at
// the accept instant — and returns the instant Send would have
// returned: the first u ≥ t at which the transmit FIFO has a free
// slot. Deterministic (cell-train) links only.
func (l *Link) SendScheduled(t sim.Time, c Cell) sim.Time {
	if !l.det {
		panic("atm: SendScheduled on a non-deterministic link")
	}
	if l.x != nil {
		l.purgeServed(l.eng.Now())
	}
	u := l.slotFree(t)
	serStart := u
	if l.frontier > serStart {
		serStart = l.frontier
	}
	serEnd := serStart.Add(l.cellTime)
	l.frontier = serEnd
	at := serEnd.Add(l.cfg.PropDelay + l.cfg.Skew.Delay(l.cfg.Index, nil))
	prevLast := l.lastDeliver
	if at <= l.lastDeliver {
		at = l.lastDeliver + 1 // preserve per-link FIFO order
	}
	l.lastDeliver = at
	l.stats.Sent++
	if l.x != nil {
		l.push(linkCell{serStart: serStart, deliver: at, accept: u})
		l.sendRemoteAt(c, at, prevLast, u)
		return u
	}
	if l.xid != 0 {
		l.pushStamped(c, serStart, at, u, prevLast)
		return u
	}
	l.push(linkCell{c: c, serStart: serStart, deliver: at, accept: u})
	if !l.walkerArmed && !l.armPending {
		if u <= l.eng.Now() {
			// A proc sender would have armed right here, right now.
			l.walkerArmed = true
			l.eng.AtCall(at, linkDeliverCB, l)
		} else {
			// A proc sender would still be blocked; it would arm the
			// walker only at the accept instant, and the delivery event
			// must carry that instant as its scheduling stamp.
			l.armPending = true
			l.eng.AtCall(u, linkArmCB, l)
		}
	}
	return u
}

// slotFree returns the first instant u ≥ t at which the virtual
// transmit FIFO has a free slot — the instant a sender arriving at t
// would come out of the Send blocking loop. Serialization starts are
// strictly increasing along the train, so if the FIFO is full at t the
// answer is the start instant of the linkFIFODepth-th entry from the
// tail.
func (l *Link) slotFree(t sim.Time) sim.Time {
	n := 0
	for i := l.count - 1; i >= 0; i-- {
		if l.at(i).serStart <= t {
			break
		}
		n++
		if n >= linkFIFODepth {
			return l.at(i).serStart
		}
	}
	return t
}

// linkArmCB fires at a virtually sent cell's accept instant: the proc
// sender being mimicked would arm the delivery walker here, so the
// delivery event's canonical (at, schedAt) stamp matches the serial
// per-cell machine exactly.
func linkArmCB(a any) {
	l := a.(*Link)
	l.armPending = false
	l.walkerArmed = true
	l.eng.AtCall(l.at(0).deliver, linkDeliverCB, l)
}

// queued counts train cells still occupying a transmit-FIFO slot at
// instant now (serialization not yet started). Entries are in push
// order with nondecreasing serStart, so scan from the newest.
func (l *Link) queued(now sim.Time) int {
	n := 0
	for i := l.count - 1; i >= 0; i-- {
		if l.at(i).serStart <= now {
			break
		}
		n++
	}
	return n
}

// armSlotWake schedules a wakeup at the next serialization boundary —
// the instant the paced machine's dequeue would have signalled a
// blocked sender — unless one is already pending.
func (l *Link) armSlotWake() {
	if l.slotArmed {
		return
	}
	now := l.eng.Now()
	for i := 0; i < l.count; i++ {
		if s := l.at(i).serStart; s > now {
			l.slotArmed = true
			l.eng.AtCall(s, linkSlotCB, l)
			return
		}
	}
}

// linkSlotCB fires at a serialization boundary: one virtual FIFO slot
// has freed, so wake the longest-blocked sender. The resumed sender
// re-arms for remaining waiters from its Send.
func linkSlotCB(a any) {
	l := a.(*Link)
	l.slotArmed = false
	l.notFull.Signal()
}

// linkDeliverCB is the train walker: deliver the front cell, then
// re-arm for the next one. Deliveries are strictly increasing per link,
// so a single event walks the whole train. A next cell pushed by
// SendScheduled whose accept instant is still ahead is not claimed yet:
// in the serial per-cell machine the walker would have found an empty
// train here and the (blocked) sender would arm at the accept instant,
// so the re-arm defers to linkArmCB to keep the delivery stamp exact.
func linkDeliverCB(a any) {
	l := a.(*Link)
	e := l.pop()
	l.stats.Delivered++
	if l.deliver != nil {
		l.deliver(e.c, l.cfg.Index)
	}
	if l.count > 0 {
		nxt := l.at(0)
		if l.xid != 0 {
			// Stamped mode: the canonical stamp is explicit, so re-arm
			// directly with the next cell's own stamp (the accept-instant
			// deferral below exists only to make the implicit stamp right).
			l.eng.InjectStamped(nxt.deliver, nxt.schedAt, l.xid, nxt.seq, linkDeliverCB, l)
		} else if nxt.accept > l.eng.Now() {
			l.walkerArmed = false
			l.armPending = true
			l.eng.AtCall(nxt.accept, linkArmCB, l)
		} else {
			l.eng.AtCall(nxt.deliver, linkDeliverCB, l)
		}
	} else {
		l.walkerArmed = false
	}
}

// at returns the i-th train entry in FIFO order.
func (l *Link) at(i int) *linkCell {
	j := l.head + i
	if j >= len(l.train) {
		j -= len(l.train)
	}
	return &l.train[j]
}

func (l *Link) push(e linkCell) {
	if l.count == len(l.train) {
		grown := make([]linkCell, 2*len(l.train))
		for i := 0; i < l.count; i++ {
			grown[i] = *l.at(i)
		}
		l.train = grown
		l.head = 0
	}
	*l.at(l.count) = e
	l.count++
}

func (l *Link) pop() linkCell {
	e := *l.at(0)
	*l.at(0) = linkCell{}
	l.head++
	if l.head >= len(l.train) {
		l.head = 0
	}
	l.count--
	return e
}

// Stats returns a snapshot of the counters, by value. The snapshot is
// only coherent between engine steps: read it after Engine.Run (or
// RunUntil) has returned, after Shutdown, or from within a single
// proc/event step. Reading it while the engine is mid-Run from outside
// the simulation can observe a cell counted as Sent but not yet
// Delivered or Lost. After Shutdown the counters are final and stable.
func (l *Link) Stats() LinkStats { return l.stats }

// Injector exposes the link's fault injector (nil when fault injection
// is off); its Stats follow the Link.Stats snapshot discipline.
func (l *Link) Injector() *fault.Injector { return l.inj }

// pace is the fallback per-cell machine for lossy, randomly skewed, or
// fault-injected links: it consumes the engine RNG one cell at a time,
// in serialization order, which the arithmetic train cannot reproduce.
// The legacy LossRate coin is drawn from the engine RNG exactly where
// it always was; the injector draws only from its own derived stream,
// so enabling it never shifts existing seeded runs.
func (l *Link) pace(p *sim.Proc) {
	for {
		c := l.queue.Recv(p)
		p.Sleep(l.cellTime) // serialization
		if l.cfg.LossRate > 0 && l.eng.Rand().Float64() < l.cfg.LossRate {
			l.stats.Lost++
			continue
		}
		act := l.inj.Apply(p.Now())
		if act.Drop {
			l.stats.Lost++
			continue
		}
		if act.CorruptBit >= 0 && c.Len > 0 {
			bit := act.CorruptBit % (8 * c.Len)
			c.Payload[bit/8] ^= 1 << (bit % 8)
		}
		at := p.Now().Add(l.cfg.PropDelay + l.cfg.Skew.Delay(l.cfg.Index, l.eng.Rand()))
		if at <= l.lastDeliver {
			at = l.lastDeliver + 1 // preserve per-link FIFO order
		}
		l.lastDeliver = at
		// Reordering delay lands after the FIFO commitment and does not
		// advance lastDeliver: later cells keep their earlier slots and
		// overtake the delayed one, bounded by the injector's ReorderMax.
		deliverAt := at.Add(act.Delay)
		if l.x != nil {
			l.paceRemote(c, deliverAt, act.Duplicate)
			continue
		}
		cell := c
		l.eng.At(deliverAt, func() {
			l.stats.Delivered++
			if l.deliver != nil {
				l.deliver(cell, l.cfg.Index)
			}
		})
		if act.Duplicate {
			l.stats.Duplicated++
			l.eng.At(deliverAt+1, func() {
				l.stats.Delivered++
				if l.deliver != nil {
					l.deliver(cell, l.cfg.Index)
				}
			})
		}
	}
}

// StripeGroup bundles width physical links into one logical channel with
// cell-level round-robin striping (§2.6).
type StripeGroup struct {
	links []*Link
	next  int
}

// NewStripeGroup creates width links sharing the given base config (the
// Index field is overridden per link).
func NewStripeGroup(e *sim.Engine, width int, cfg LinkConfig) *StripeGroup {
	if width <= 0 {
		panic("atm: stripe width must be positive")
	}
	g := &StripeGroup{}
	for i := 0; i < width; i++ {
		c := cfg
		c.Index = i
		g.links = append(g.links, NewLink(e, c))
	}
	return g
}

// Stamp puts a local group's links in stamped mode, numbering them in
// stripe order with channel ids drawn from next — the ids a
// cross-shard constructor (NewCrossStripeGroup) would draw for the same
// links in the same construction order. Same-instant deliveries from
// different links then order identically at any shard count (see the
// stamped-mode comment on Link).
func (g *StripeGroup) Stamp(next func() uint64) {
	for _, l := range g.links {
		l.xid = next()
	}
}

// Width returns the number of physical links.
func (g *StripeGroup) Width() int { return len(g.links) }

// Link returns the i-th physical link.
func (g *StripeGroup) Link(i int) *Link { return g.links[i] }

// Links returns the physical links in stripe order (a fresh slice; the
// caller may keep it).
func (g *StripeGroup) Links() []*Link {
	out := make([]*Link, len(g.links))
	copy(out, g.links)
	return out
}

// Stats sums the per-link counters. The snapshot discipline of
// Link.Stats applies.
func (g *StripeGroup) Stats() LinkStats {
	var s LinkStats
	for _, l := range g.links {
		ls := l.Stats()
		s.Sent += ls.Sent
		s.Delivered += ls.Delivered
		s.Lost += ls.Lost
		s.Duplicated += ls.Duplicated
	}
	return s
}

// FaultStats sums the per-link injector counters (zero when fault
// injection is off). The Link.Stats snapshot discipline applies.
func (g *StripeGroup) FaultStats() fault.Stats {
	var s fault.Stats
	for _, l := range g.links {
		s.Add(l.inj.Stats())
	}
	return s
}

// SetReceiver installs the delivery callback on every link.
func (g *StripeGroup) SetReceiver(fn func(c Cell, link int)) {
	for _, l := range g.links {
		l.SetReceiver(fn)
	}
}

// Send transmits one cell on the next link in round-robin order,
// blocking p if that link's FIFO is full.
func (g *StripeGroup) Send(p *sim.Proc, c Cell) {
	g.links[g.next].Send(p, c)
	g.next = (g.next + 1) % len(g.links)
}

// ResetRoundRobin restarts striping at link 0, so each PDU's first cell
// goes out on a known link (the board does this per PDU).
func (g *StripeGroup) ResetRoundRobin() { g.next = 0 }

// AggregatePayloadMbps returns the logical channel's payload bandwidth:
// width × rate × 44/53 — the "516 Mbps data bandwidth available in a
// 622 Mbps SONET/ATM link" figure of §2.5.1.
func (g *StripeGroup) AggregatePayloadMbps() float64 {
	var total float64
	for _, l := range g.links {
		total += float64(l.cfg.RateBps)
	}
	return total * CellPayload / CellSize / 1e6
}
