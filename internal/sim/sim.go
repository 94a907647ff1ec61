// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an event queue ordered by
// (time, insertion sequence). Sequential activities — host interrupt
// handlers, driver threads, protocols and applications — run as Procs:
// runtime coroutines the engine switches into and out of directly, so
// exactly one of them runs at any instant and every run of a
// simulation is bit-for-bit reproducible. Activities written as state
// machines instead — the OSIRIS board's processors and engines — wait
// as continuations (Cont), in the same queues, without a coroutine.
//
// The event queue is allocation-free in steady state: fired and
// cancelled events return their storage to an engine-owned free list,
// and the closure-free scheduling forms (AtCall, AfterCall) let hot
// paths schedule without materializing a closure per event. Stale
// handles to recycled events are detected with a generation counter, so
// cancelling an event that already fired is always safe.
//
// Virtual time is measured in integer nanoseconds (type Time); durations
// use the standard time.Duration, which has the same resolution.
package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"
)

// Time is an instant of virtual time, in nanoseconds since the start of
// the simulation.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Microseconds returns t expressed in microseconds.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

func (t Time) String() string { return time.Duration(t).String() }

// eventNode is the engine-owned storage behind an Event handle. Nodes
// are pooled: when an event fires or is cancelled, its node goes back
// on the engine's free list with the generation counter bumped, so
// operations through a stale handle are detected and ignored.
type eventNode struct {
	at Time
	// schedAt is the virtual instant the event was scheduled at, and xid
	// identifies the scheduling source: 0 for events scheduled through
	// the engine's own scheduling forms, a link's topology-fixed id for
	// its deliveries (InjectStamped). Together with seq they form the
	// canonical execution order (at, schedAt, xid, seq). Among xid-0
	// events seq is assigned in scheduling order and schedAt is
	// nondecreasing in it, so for them the order is exactly (at, seq);
	// the extra keys decide only how stamped deliveries tie.
	schedAt Time
	xid     uint64
	seq     uint64
	cb      func(any)
	arg     any
	index   int    // heap index, -1 while off the heap
	gen     uint64 // bumped on every recycle; live handles match it
	free    *eventNode
}

// Event is a handle to a scheduled callback, returned by the scheduling
// methods so the caller may cancel it. The zero Event is valid and
// refers to nothing (Cancel on it is a no-op). Handles stay safe after
// the event fires: the underlying storage is recycled, and a stale
// handle is recognized by its generation and ignored.
type Event struct {
	n   *eventNode
	gen uint64
}

// Pending reports whether the event is still scheduled: it has neither
// fired nor been cancelled.
func (ev Event) Pending() bool { return ev.n != nil && ev.n.gen == ev.gen }

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct one with NewEngine.
type Engine struct {
	now      Time
	seed     int64
	seq      uint64
	pq       []*eventNode
	freeList *eventNode
	// workers holds every live proc coroutine; idle is the subset parked
	// between bodies, reused by Go before a new coroutine is made.
	workers  []*worker
	idle     []*worker
	fired    uint64
	resumes  uint64 // proc resumes (coroutine switches into a body)
	halted   bool   // Shutdown has run
	horizon  Time   // the run's horizon (noLimit for Run), -1 outside a run
	recorder func(TraceEvent)
	running  bool
	// top: pq[0] is the event Run is firing, already recycled, until
	// its callback first schedules or returns. Its key precedes every
	// queued event, so a Cancel meanwhile removes below it.
	top bool
	// sites is the set of DeriveRand site names, checked for collisions.
	sites map[string]struct{}
	// xids is the last id handed out by NewStampID.
	xids uint64
	// pools holds the engine's record pools (PoolOf): the awaited-op
	// pools and the cell store, one *Pool[*T] per record type, in
	// poolSlots unless there are more types than slots.
	pools     []interface{ Outstanding() int }
	poolSlots [8]interface{ Outstanding() int }
	// panicVal is a proc body's panic, stashed by Proc.run for
	// Proc.resume to re-raise on the engine goroutine.
	panicVal any
}

// NewEngine returns an engine with its virtual clock at zero. The
// engine has no shared pseudo-random source: a simulation component
// that needs randomness draws from its own stream, derived from seed
// and a site name with DeriveRand, for runs to be reproducible.
func NewEngine(seed int64) *Engine {
	e := &Engine{seed: seed, horizon: -1}
	e.pools = e.poolSlots[:0]
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the seed the engine was constructed with.
func (e *Engine) Seed() int64 { return e.seed }

// DeriveRand returns an independent deterministic pseudo-random source
// keyed by the engine seed and a site name. It is the engine's only
// source of randomness: every component that draws (fault injectors,
// skew models, jittered timers) uses its own derived source. The
// streams never perturb each other, so adding or removing one site
// leaves every other site's draws — and therefore the rest of the
// simulation — bit-for-bit unchanged.
//
// Deriving the same site twice panics: two components sharing a site
// would silently read one pseudo-random stream in lockstep, which is
// exactly the coupling DeriveRand exists to prevent.
func (e *Engine) DeriveRand(site string) *rand.Rand {
	if _, dup := e.sites[site]; dup {
		panic(fmt.Sprintf("sim: DeriveRand site %q derived twice: streams must never be shared", site))
	}
	if e.sites == nil {
		e.sites = make(map[string]struct{})
	}
	e.sites[site] = struct{}{}
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(e.seed))
	h.Write(b[:])
	h.Write([]byte(site))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// TraceEvent is one typed trace record, the engine's only trace
// plane. The Ph byte follows the Chrome trace-event phase convention
// so records export losslessly to a Perfetto-loadable timeline: 'i' instant, 'X' complete span (At is
// the span start, Dur its length), 'C' counter sample (Arg is the
// counter value). Comp names the emitting component and becomes a
// timeline track; Name is the event (or counter) name; Cat is a
// coarse category for filtering, one of the Cat* constants.
//
// The struct is plain data passed by value: emitting one performs no
// allocation, and recording is entirely passive — no engine state is
// read or written beyond the recorder callback, so enabling it cannot
// perturb the simulation.
type TraceEvent struct {
	At   Time
	Dur  Time
	Ph   byte
	Comp string
	Cat  string
	Name string
	Arg  int64
}

// Trace categories (TraceEvent.Cat) used by the instrumented components.
const (
	CatCell  = "cell"  // cells transmitted by a board
	CatPDU   = "pdu"   // PDU-level events (tx start, reassembly, delivery)
	CatIRQ   = "irq"   // host interrupts
	CatDrop  = "drop"  // losses: FIFO overflow, quota, AAL5 errors, no route
	CatProto = "proto" // protocol decisions (retransmits, recoveries)
	CatDrv   = "drv"   // driver activity (stalls, aborts)
	CatQueue = "q"     // queue-depth counter samples
)

// SetRecorder installs a typed-trace callback invoked by Emit. A nil
// recorder disables typed tracing.
func (e *Engine) SetRecorder(fn func(TraceEvent)) { e.recorder = fn }

// Recording reports whether a typed-trace recorder is installed — hot
// paths branch on it so disabled tracing costs one predictable branch
// and zero allocations.
func (e *Engine) Recording() bool { return e.recorder != nil }

// Emit hands a typed trace record to the recorder, if any. Callers
// stamp At themselves (usually e.Now(); span emitters backdate At to
// the span start).
func (e *Engine) Emit(ev TraceEvent) {
	if e.recorder != nil {
		e.recorder(ev)
	}
}

// before orders events by the canonical key (at, schedAt, xid, seq):
// fire time first, then scheduling time, then scheduling source, then
// per-source insertion order. Events the engine's own forms schedule have
// xid 0 and seq increasing with schedAt, so among them this is exactly
// (at, seq). A link's deliveries carry its topology-fixed xid,
// which makes their tie-break a function of the topology rather than of
// global scheduling order; the committed result fingerprints pin the
// order it produces. The key is unique per event, so the order is
// total and the heap's shape never decides which event runs first.
func before(a, b *eventNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.xid != b.xid {
		return a.xid < b.xid
	}
	return a.seq < b.seq
}

// siftUp places n, which belongs at heap index i or above, by moving a
// hole up from i: each parent that n precedes drops into the hole, and
// n is written once where the hole stops.
func (e *Engine) siftUp(n *eventNode, i int) {
	for i > 0 {
		p := (i - 1) / 2
		pn := e.pq[p]
		if !before(n, pn) {
			break
		}
		e.pq[i] = pn
		pn.index = i
		i = p
	}
	e.pq[i] = n
	n.index = i
}

// siftDown places n, which belongs at heap index i or below, by moving
// a hole down from i: the earlier child rises into the hole while it
// precedes n.
func (e *Engine) siftDown(n *eventNode, i int) {
	pq := e.pq
	for {
		c := 2*i + 1
		if c >= len(pq) {
			break
		}
		cn := pq[c]
		if r := c + 1; r < len(pq) && before(pq[r], cn) {
			c, cn = r, pq[r]
		}
		if !before(cn, n) {
			break
		}
		pq[i] = cn
		cn.index = i
		i = c
	}
	pq[i] = n
	n.index = i
}

// heapPush queues n. While the root is the event Run just fired (top),
// n takes its slot and sifts down once: the fired event's removal and
// its callback's first scheduling are one sift, not two.
func (e *Engine) heapPush(n *eventNode) {
	if e.top {
		e.top = false
		e.siftDown(n, 0)
		return
	}
	e.pq = append(e.pq, n)
	e.siftUp(n, len(e.pq)-1)
}

// heapRemove detaches the node at heap index i: the last node fills the
// hole, sifting up or down from it.
func (e *Engine) heapRemove(i int) {
	n := e.pq[i]
	last := len(e.pq) - 1
	x := e.pq[last]
	e.pq[last] = nil
	e.pq = e.pq[:last]
	if i != last {
		if i > 0 && before(x, e.pq[(i-1)/2]) {
			e.siftUp(x, i)
		} else {
			e.siftDown(x, i)
		}
	}
	n.index = -1
}

// dropTop completes the removal of the fired root when its callback
// scheduled nothing into its slot.
func (e *Engine) dropTop() {
	if e.top {
		e.top = false
		e.heapRemove(0)
	}
}

// recycle retires a node (fired or cancelled) to the free list. The
// generation bump invalidates every outstanding handle to it.
func (e *Engine) recycle(n *eventNode) {
	n.gen++
	n.cb = nil
	n.arg = nil
	n.free = e.freeList
	e.freeList = n
}

// newNode takes a node off the free list (or allocates one).
func (e *Engine) newNode() *eventNode {
	n := e.freeList
	if n != nil {
		e.freeList = n.free
		n.free = nil
	} else {
		n = &eventNode{gen: 1}
	}
	return n
}

// schedule is the common path behind At, AtCall and AfterCall.
func (e *Engine) schedule(t Time, cb func(any), arg any) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v, before now %v", t, e.now))
	}
	n := e.newNode()
	e.seq++
	n.at = t
	n.schedAt = e.now
	n.xid = 0
	n.seq = e.seq
	n.cb = cb
	n.arg = arg
	e.heapPush(n)
	return Event{n: n, gen: n.gen}
}

// InjectStamped schedules cb(arg) at instant t carrying an explicit
// canonical-order stamp (schedAt, xid, seq) instead of this engine's
// own scheduling stamp. Cell-train links deliver through it: the link
// computes the schedAt its delivery event would have carried had the
// sender scheduled it, and its topology-fixed xid (from NewStampID)
// decides how the delivery ties with other events at the same
// (at, schedAt). xid must be non-zero (0 is reserved for the
// engine's own events); seq need only be monotone per xid. The engine's own seq counter is not consumed, so injection
// leaves every other event's stamp untouched.
func (e *Engine) InjectStamped(t, schedAt Time, xid, seq uint64, cb func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: injecting event at %v, before now %v", t, e.now))
	}
	if xid == 0 {
		panic("sim: InjectStamped needs a non-zero xid")
	}
	n := e.newNode()
	n.at = t
	n.schedAt = schedAt
	n.xid = xid
	n.seq = seq
	n.cb = cb
	n.arg = arg
	e.heapPush(n)
}

// NewStampID returns a fresh non-zero id for InjectStamped, numbering
// 1, 2, 3, … in call order. Every link draws one at construction, so
// the ids — and with them the order of same-instant deliveries from
// different links — are a function of the topology alone.
func (e *Engine) NewStampID() uint64 {
	e.xids++
	return e.xids
}

// callFunc adapts the closure scheduling forms to the callback+argument
// representation. Boxing a func value into any stores a pointer, so the
// adapter itself never allocates.
func callFunc(a any) { a.(func())() }

// At schedules fn to run at instant t, which must not be in the virtual
// past. It returns the event so the caller may cancel it.
func (e *Engine) At(t Time, fn func()) Event { return e.schedule(t, callFunc, fn) }

// AtCall schedules cb(arg) to run at instant t. It is the closure-free
// form of At for hot paths: with a pointer-shaped arg (or one already on
// the heap) the call allocates nothing, where At would force each call
// site to materialize a capturing closure per event.
func (e *Engine) AtCall(t Time, cb func(any), arg any) Event { return e.schedule(t, cb, arg) }

// AfterCall schedules cb(arg) to run d after the current virtual time.
func (e *Engine) AfterCall(d time.Duration, cb func(any), arg any) Event {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.schedule(e.now.Add(d), cb, arg)
}

// Cancel removes a pending event from the queue. Cancelling an event
// that already fired or was already cancelled — or the zero Event — is
// a no-op, even if the event's storage has since been reused.
func (e *Engine) Cancel(ev Event) {
	n := ev.n
	if n == nil || n.gen != ev.gen || n.index < 0 {
		return
	}
	e.heapRemove(n.index)
	e.recycle(n)
}

// Elidable returns the latest instant the clock may move to in place,
// or a time before now when it may not move at all: the rule of the
// direct time advance behind every sleep (WakeAt). A wakeup at t <=
// Elidable would be the next event Run executes: the engine is running
// (Shutdown unwinds killed procs outside Run, and their sleeps must
// still block), t is within the run's horizon, and every queued event
// fires strictly after t (one at t was scheduled earlier and runs
// first). Then a sleep can do in place exactly what scheduling its
// wakeup and Run firing it would have done — consume a sequence
// number, count the event, set the clock to t — and nothing else can
// observe the difference. While the root is the dead fired event
// (top), the earliest live event is one of its children.
func (e *Engine) Elidable() Time {
	t, pq := e.horizon, e.pq // before now outside a run
	if e.top {
		pq = pq[1:] // the root's children, the earlier of the two first
		if len(pq) > 1 && pq[1].at < pq[0].at {
			pq = pq[1:]
		}
	}
	if len(pq) > 0 && pq[0].at <= t {
		t = pq[0].at - 1
	}
	return t
}

// Elide takes n sleeps in place at once, the last of them ending at t:
// the bulk form of n WakeAt calls that each found its wakeup elidable.
// t must not be before now nor past Elidable, and n must be positive;
// then every one of the n sleeps, ending at or before t, would have
// been elided, and the clock, the event count and every later sequence
// stamp are what they would have made them.
func (e *Engine) Elide(t Time, n int) {
	if n < 1 || t < e.now || t > e.Elidable() {
		panic(fmt.Sprintf("sim: Elide(%v, %d) at %v: not elidable", t, n, e.now))
	}
	e.elide(t, uint64(n))
}

// elide is the bookkeeping of n elided sleeps ending at t: what
// scheduling and firing their wakeups would have done.
func (e *Engine) elide(t Time, n uint64) {
	e.seq += n
	e.fired += n
	e.now = t
}

// noLimit is the horizon of a run with none.
const noLimit = Time(math.MaxInt64)

// Run executes events in order until the queue is empty or the time
// limit set by RunUntil is reached. It returns the virtual time at
// which the simulation went quiescent.
//
// Procs that remain blocked on conditions when the queue drains do not
// keep the simulation alive: with no pending events nothing can ever wake
// them, so the run is quiescent.
func (e *Engine) Run() Time { return e.run(noLimit) }

// run executes events in order until the queue is empty or the next
// event is past horizon.
func (e *Engine) run(horizon Time) Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running, e.horizon = true, horizon
	defer func() {
		e.dropTop() // a callback panicked before its root was removed
		e.running, e.horizon = false, -1
	}()
	for len(e.pq) > 0 {
		n := e.pq[0]
		if n.at > horizon {
			// Past the horizon: leave it queued and stop.
			break
		}
		if n.at < e.now {
			panic("sim: event queue went backwards")
		}
		e.now = n.at
		e.fired++
		cb, arg := n.cb, n.arg
		// The fired node stays at the root, dead (top), until the
		// callback's first scheduling takes its slot or the callback
		// returns. Recycled first, it can be that scheduling's node,
		// and a self-Cancel from inside the callback is a no-op.
		e.recycle(n)
		e.top = true
		cb(arg)
		e.dropTop()
	}
	return e.now
}

// RunUntil runs the simulation until the virtual clock would pass t;
// events scheduled after t remain queued and the clock is advanced to t.
// RunUntil(0) runs with no horizon, as Run does.
func (e *Engine) RunUntil(t Time) Time {
	if t == 0 {
		e.Run()
	} else {
		e.run(t)
	}
	if e.now < t {
		e.now = t
	}
	return e.now
}

// Pending reports the number of events in the queue.
func (e *Engine) Pending() int {
	if e.top {
		return len(e.pq) - 1
	}
	return len(e.pq)
}

// Events returns the cumulative number of events the engine has
// executed across all Run calls — the denominator for wall-clock
// events/sec measurements.
func (e *Engine) Events() uint64 { return e.fired }

// Resumes returns the cumulative number of times the engine switched
// into a proc body — each costs a coroutine switch on top of its event.
func (e *Engine) Resumes() uint64 { return e.resumes }

// Halted reports whether Shutdown has run. Procs die at Shutdown;
// continuation-driven components check Halted when their events fire,
// so that they too do nothing once the engine is torn down.
func (e *Engine) Halted() bool { return e.halted }

// Shutdown terminates all live Procs and their coroutines. A blocked
// proc is unwound through its deferred calls; a proc that never started
// never runs its body. The engine must not be running. After Shutdown
// the engine can still schedule plain events but all procs are gone,
// and Halted reports true. It is safe to call multiple times.
func (e *Engine) Shutdown() {
	if e.running {
		panic("sim: Shutdown during Run")
	}
	e.halted = true
	for _, w := range e.workers {
		w.stop()
		if w.p != nil {
			w.p.done = true // already set unless the proc never started
		}
	}
	e.workers, e.idle = nil, nil
}
