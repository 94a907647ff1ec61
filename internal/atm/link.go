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
	// rng returns the link's own pseudo-random stream, deriving it on
	// the first call; a model that draws nothing never calls it.
	Delay(link int, rng func() *rand.Rand) time.Duration
}

// NoSkew delays nothing: all links behave identically (the AURORA
// single-fiber case eliminating path-length skew).
type NoSkew struct{}

// Delay implements SkewModel.
func (NoSkew) Delay(int, func() *rand.Rand) time.Duration { return 0 }

// ConstantSkew gives each link a fixed extra delay — differing physical
// path lengths or multiplexing equipment (§2.6 causes 1 and 2).
type ConstantSkew struct {
	PerLink []time.Duration
}

// Delay implements SkewModel.
func (s ConstantSkew) Delay(link int, _ func() *rand.Rand) time.Duration {
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
func (s QueueingSkew) Delay(_ int, rng func() *rand.Rand) time.Duration {
	if s.Max <= 0 {
		return 0
	}
	return time.Duration(rng().Int63n(int64(s.Max) + 1))
}

// linkFIFODepth is a link's transmit-side FIFO depth in cells.
const linkFIFODepth = 4

// LinkConfig configures one physical link.
type LinkConfig struct {
	RateBps   int64         // line rate (default DefaultLinkRate)
	PropDelay time.Duration // propagation delay (default 1µs)
	Index     int           // link index within its stripe group
	Skew      SkewModel     // nil means NoSkew
	// Fault injects loss, corruption and duplication on this link — the
	// only place the simulated network is unreliable, the paper's
	// premise (§2.3).
	Fault *fault.Config
	// FaultSite names the link's random streams (the link index is
	// appended): the injector draws from a stream derived from
	// (seed, "fault/"+site), a drawing skew model from one derived from
	// (seed, "skew/"+site). Distinct links sharing a config that injects
	// faults or draws skew must get distinct sites.
	FaultSite string
}

// LinkStats counts link activity. Sent + Duplicated = Delivered + Lost
// once the link drains: a lost cell counts when it is accepted, and
// every other accepted or injector-cloned cell is eventually delivered.
type LinkStats struct {
	Sent       int64
	Delivered  int64
	Lost       int64
	Duplicated int64 // injector-cloned cells added to the stream
}

// linkCell is one in-flight cell of a link's train: deliver is the
// instant the receiver callback runs, and schedAt/seq are the cell's
// canonical delivery stamp; see the stamp comment on Link.
type linkCell struct {
	c       Cell
	deliver sim.Time
	schedAt sim.Time
	seq     uint64
}

// Link is one unidirectional physical link. Cells submitted with Send
// are serialized at line rate and delivered, in order, to the receiver
// callback after propagation delay plus model skew.
//
// The link is a cell train: serialization times are computed
// arithmetically when a cell is accepted, accepted cells form a train
// of precomputed delivery instants, and a single walker event re-arms
// itself along the train, so the link runs no process and schedules
// no per-cell events. The injector's verdict and the skew draw are
// taken at acceptance, in FIFO order, each from the link's own derived
// stream; a lost cell still serializes and holds its transmit-FIFO
// slot, but never enters the train.
type Link struct {
	eng         *sim.Engine
	cfg         LinkConfig
	cellTime    time.Duration
	lastDeliver sim.Time
	deliver     func(c Cell, link int)
	stats       LinkStats
	inj         *fault.Injector // nil unless cfg.Fault injects something
	skewRng     *rand.Rand      // derived on the skew model's first draw
	// skewRand is deriveSkewRand, bound once so that handing it to the
	// skew model per cell does not allocate.
	skewRand func() *rand.Rand

	train       []linkCell // ring buffer, grown on demand
	head, count int
	frontier    sim.Time // serialization end of the newest accepted cell
	// starts holds the serialization starts of the last linkFIFODepth
	// accepted cells, oldest at starts[next]: the virtual transmit FIFO.
	starts      [linkFIFODepth]sim.Time
	next        int
	walkerArmed bool
	slotArmed   bool
	notFull     *sim.Cond

	// A delivery event carries an explicit canonical stamp (schedAt,
	// xid, seq) via InjectStamped. At a tied delivery instant the engine
	// orders events by (at, schedAt, xid, seq); xid is drawn from the
	// engine at construction, so how same-instant deliveries from
	// different links order is a fixed function of the topology rather
	// than of global scheduling order, which shifts whenever any
	// unrelated activity schedules one more or one fewer event.
	// Symmetric fan-in workloads tie constantly (senders phase-lock on a
	// shared egress serialization grid), and the committed result
	// fingerprints pin the order this numbering produces. schedAt is
	// where a sender-scheduled delivery would have been scheduled — the
	// accept instant if the train was empty, else the previous cell's
	// delivery — and seq is monotone per link.
	xid  uint64
	lseq uint64 // per-link stamp counter (monotone)
}

// linkSend is a Send in continuation form: a proc awaits one.
type linkSend struct {
	l *Link
	c Cell
}

func (s *linkSend) Step(k sim.Cont) bool { return s.l.SendCont(&s.c, k) }

// NewLink creates a link and draws its stamp id from the engine, so
// links number in construction order.
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
	l := &Link{
		eng:     e,
		cfg:     cfg,
		xid:     e.NewStampID(),
		train:   make([]linkCell, linkFIFODepth+4),
		notFull: sim.NewCond(e),
	}
	l.cellTime = time.Duration(int64(CellSize*8) * int64(time.Second) / cfg.RateBps)
	l.skewRand = l.deriveSkewRand
	if cfg.Fault != nil {
		l.inj = fault.New(e, l.site(), cfg.Fault)
	}
	return l
}

// site is the link's per-link stream name: FaultSite (default "link")
// with the link index appended.
func (l *Link) site() string {
	site := l.cfg.FaultSite
	if site == "" {
		site = "link"
	}
	return site + "/l" + strconv.Itoa(l.cfg.Index)
}

// deriveSkewRand returns the skew model's stream, deriving it on first
// use so links whose model never draws claim no stream.
func (l *Link) deriveSkewRand() *rand.Rand {
	if l.skewRng == nil {
		l.skewRng = l.eng.DeriveRand("skew/" + l.site())
	}
	return l.skewRng
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
	pl := sim.PoolOf[linkSend](l.eng) // made on first use: no workload sends from a proc
	s := sim.TakeNew(pl)
	s.l, s.c = l, c
	p.Await(s)
	pl.Put(s)
}

// SendCont submits *c and reports true if the link's transmit FIFO has
// a free slot; otherwise it queues k to run at the next serialization
// boundary and reports false, and the caller tries again from k: the
// continuation form of Send. The link copies the cell; c is not kept.
func (l *Link) SendCont(c *Cell, k sim.Cont) bool {
	// The transmit FIFO is virtual: a cell occupies a slot from Send
	// until its serialization starts.
	if l.slotFree(l.eng.Now()) > l.eng.Now() {
		l.armSlotWake()
		l.notFull.WaitCont(k)
		return false
	}
	l.commit(l.eng.Now(), *c)
	if l.notFull.Waiting() > 0 {
		l.armSlotWake()
	}
	return true
}

// SendScheduled transmits a cell on behalf of a virtual sender — one
// whose dequeue instant t was computed arithmetically rather than
// reached by a blocked proc. t must be at or after the engine's current
// instant and nondecreasing across calls, and the caller must be the
// link's only sender (the switch's egress arbiter is; boards are not).
// The link performs exactly the state transitions Send would have
// performed had a proc executed it at t and returns the instant Send
// would have returned: the first u ≥ t at which the transmit FIFO has
// a free slot.
func (l *Link) SendScheduled(t sim.Time, c Cell) sim.Time {
	u := l.slotFree(t)
	l.commit(u, c)
	return u
}

// commit accepts c at instant u, the moment its sender leaves the
// blocking loop — the one place a link cell's fate is decided: it
// serializes behind the frontier and takes a FIFO slot, then the
// injector may drop it, flip one payload bit, or clone it directly
// behind itself, and whatever survives enters the train.
func (l *Link) commit(u sim.Time, c Cell) {
	serStart := max(u, l.frontier)
	l.frontier = serStart.Add(l.cellTime)
	l.starts[l.next] = serStart
	l.next = (l.next + 1) % linkFIFODepth
	l.stats.Sent++
	act := l.inj.Apply()
	if act.Drop {
		l.stats.Lost++
		return
	}
	if act.CorruptBit >= 0 && c.Len > 0 {
		bit := act.CorruptBit % (8 * c.Len)
		c.Payload[bit/8] ^= 1 << (bit % 8)
	}
	l.enter(u, c, l.frontier.Add(l.cfg.PropDelay+l.cfg.Skew.Delay(l.cfg.Index, l.skewRand)))
	if act.Duplicate {
		l.stats.Duplicated++
		l.enter(u, c, l.lastDeliver+1)
	}
}

// enter appends c to the train for delivery at at, bumped past the
// previous delivery to keep per-link FIFO order, stamps it, and arms
// the walker if the train was empty.
func (l *Link) enter(u sim.Time, c Cell, at sim.Time) {
	schedAt := max(u, l.lastDeliver)
	if at <= l.lastDeliver {
		at = l.lastDeliver + 1
	}
	l.lastDeliver = at
	l.lseq++
	l.push(linkCell{c: c, deliver: at, schedAt: schedAt, seq: l.lseq})
	if !l.walkerArmed {
		l.walkerArmed = true
		l.eng.InjectStamped(at, schedAt, l.xid, l.lseq, linkDeliverCB, l)
	}
}

// slotFree returns the first instant u ≥ t at which the virtual
// transmit FIFO has a free slot — the instant a sender arriving at t
// would come out of the Send blocking loop. Serialization starts are
// strictly increasing, so the FIFO is full at t exactly when the oldest
// of the last linkFIFODepth starts is still ahead of t, and that start
// frees the slot.
func (l *Link) slotFree(t sim.Time) sim.Time {
	return max(t, l.starts[l.next])
}

// armSlotWake schedules a wakeup at the next serialization boundary —
// the instant a transmit-FIFO slot frees for a blocked sender — unless
// one is already pending.
func (l *Link) armSlotWake() {
	if l.slotArmed {
		return
	}
	now := l.eng.Now()
	for i := 0; i < linkFIFODepth; i++ {
		if s := l.starts[(l.next+i)%linkFIFODepth]; s > now {
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
// re-arm with the next cell's own stamp. Deliveries are strictly
// increasing per link, so a single event walks the whole train.
func linkDeliverCB(a any) {
	l := a.(*Link)
	e := l.pop()
	l.stats.Delivered++
	if l.deliver != nil {
		l.deliver(e.c, l.cfg.Index)
	}
	if l.count > 0 {
		nxt := l.at(0)
		l.eng.InjectStamped(nxt.deliver, nxt.schedAt, l.xid, nxt.seq, linkDeliverCB, l)
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
