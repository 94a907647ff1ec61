// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an event queue ordered by
// (time, insertion sequence). Sequential activities — the OSIRIS board's
// on-board processors, host interrupt handlers, driver threads — run as
// Procs: runtime coroutines the engine switches into and out of
// directly, so exactly one of them runs at any instant and every run of
// a simulation is bit-for-bit reproducible.
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
	"math/rand"
	"sort"
	"time"
)

// Time is an instant of virtual time, in nanoseconds since the start of
// the simulation.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

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
	// identifies the scheduling source: 0 for events scheduled by this
	// engine's own activities, a stable cross-shard channel id for events
	// injected by another shard. Together with seq they form the
	// canonical execution order (at, schedAt, xid, seq). For a standalone
	// engine seq is assigned in scheduling order and schedAt is
	// nondecreasing in it, so the refined order coincides exactly with
	// the historical (at, seq) order; the extra keys matter only when
	// shards merge event streams.
	schedAt      Time
	xid          uint64
	seq          uint64
	cb           func(any)
	arg          any
	index        int    // heap index, -1 while off the heap
	gen          uint64 // bumped on every recycle; live handles match it
	cancelledGen uint64 // generation of the most recent cancellation
	free         *eventNode
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

// IsZero reports whether the handle was never assigned a scheduled
// event.
func (ev Event) IsZero() bool { return ev.n == nil }

// Pending reports whether the event is still scheduled: it has neither
// fired nor been cancelled.
func (ev Event) Pending() bool { return ev.n != nil && ev.n.gen == ev.gen }

// Cancelled reports whether Cancel was called on this event before it
// fired. The answer is reliable until the engine reuses the event's
// storage for a later scheduling that is also cancelled; code that
// needs a durable record of a cancellation should keep its own flag.
func (ev Event) Cancelled() bool { return ev.n != nil && ev.n.cancelledGen == ev.gen }

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
	rng      *rand.Rand
	fired    uint64
	stopped  bool
	limit    Time // 0 means no limit
	tracer   func(t Time, format string, args ...any)
	recorder func(TraceEvent)
	running  bool
	// shard/group identify the engine's place in a ShardGroup (zero /
	// nil for a standalone engine).
	shard int
	group *ShardGroup
	// sites records every DeriveRand site name, for the collision and
	// partition-independence regression checks.
	sites map[string]int
}

// NewEngine returns an engine with its virtual clock at zero and its
// pseudo-random source seeded with seed (simulation components that need
// randomness must draw from Engine.Rand for runs to be reproducible).
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic pseudo-random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Seed returns the seed the engine was constructed with.
func (e *Engine) Seed() int64 { return e.seed }

// DeriveRand returns an independent deterministic pseudo-random source
// keyed by the engine seed and a site name. Components that draw
// randomness out-of-band from the main simulation (fault injectors,
// jittered timers) must each use their own derived source: the streams
// never perturb each other or Engine.Rand, so adding or removing one
// injection site leaves every other site's draws — and therefore the
// rest of the simulation — bit-for-bit unchanged.
func (e *Engine) DeriveRand(site string) *rand.Rand {
	if e.sites == nil {
		e.sites = make(map[string]int)
	}
	e.sites[site]++
	if e.group != nil {
		e.group.registerSite(site, e.shard)
	}
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(e.seed))
	h.Write(b[:])
	h.Write([]byte(site))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// DerivedSites returns every site name DeriveRand has been called with
// on this engine, sorted. The derived stream is a pure function of
// (seed, site) — never of the engine identity — so a partitioned
// topology reproduces the serial run's streams exactly as long as the
// site set is collision-free and partition-independent; this accessor
// exists for the regression tests that pin both properties.
func (e *Engine) DerivedSites() []string {
	out := make([]string, 0, len(e.sites))
	for s := range e.sites {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Shard returns the engine's index within its ShardGroup (0 for a
// standalone engine).
func (e *Engine) Shard() int { return e.shard }

// SetTracer installs a trace callback invoked by Tracef. A nil tracer
// disables tracing.
func (e *Engine) SetTracer(fn func(t Time, format string, args ...any)) { e.tracer = fn }

// Tracing reports whether a tracer is installed — hot paths use it to
// skip argument construction entirely.
func (e *Engine) Tracing() bool { return e.tracer != nil }

// Tracef emits a trace record at the current virtual time if a tracer is
// installed.
func (e *Engine) Tracef(format string, args ...any) {
	if e.tracer != nil {
		e.tracer(e.now, format, args...)
	}
}

// TraceEvent is one typed trace record, the structured sibling of the
// printf-style Tracef stream. The Ph byte follows the Chrome
// trace-event phase convention so records export losslessly to a
// Perfetto-loadable timeline: 'i' instant, 'X' complete span (At is
// the span start, Dur its length), 'C' counter sample (Arg is the
// counter value). Comp names the emitting component and becomes a
// timeline track; Name is the event (or counter) name; Cat is a
// coarse category for filtering (cell/pdu/irq/drop/proto/drv/q).
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

// less orders the heap by the canonical key (at, schedAt, xid, seq):
// fire time first, then scheduling time, then scheduling source, then
// per-source insertion order. For a standalone engine every event has
// xid 0 and seq increases with schedAt, so this is exactly the
// historical (at, seq) order; the refinement gives cross-shard merges a
// partition-independent tie-break.
func (e *Engine) less(i, j int) bool {
	a, b := e.pq[i], e.pq[j]
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

func (e *Engine) swap(i, j int) {
	e.pq[i], e.pq[j] = e.pq[j], e.pq[i]
	e.pq[i].index = i
	e.pq[j].index = j
}

func (e *Engine) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.swap(i, parent)
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	for {
		l := 2*i + 1
		if l >= len(e.pq) {
			return
		}
		m := l
		if r := l + 1; r < len(e.pq) && e.less(r, l) {
			m = r
		}
		if !e.less(m, i) {
			return
		}
		e.swap(i, m)
		i = m
	}
}

func (e *Engine) heapPush(n *eventNode) {
	n.index = len(e.pq)
	e.pq = append(e.pq, n)
	e.siftUp(n.index)
}

// heapRemove detaches the node at heap index i, restoring heap order.
func (e *Engine) heapRemove(i int) *eventNode {
	n := e.pq[i]
	last := len(e.pq) - 1
	if i != last {
		e.swap(i, last)
	}
	e.pq[last] = nil
	e.pq = e.pq[:last]
	if i != last {
		e.siftDown(i)
		e.siftUp(i)
	}
	n.index = -1
	return n
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

// schedule is the common path behind At/After/AtCall/AfterCall.
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
// own scheduling stamp. It is the cross-shard delivery primitive: a
// sending shard computes the stamp its scheduling call would have
// produced in a serial run, and the receiving shard merges the event
// into its queue in exactly that position. xid must be a non-zero,
// topology-stable channel id (0 is reserved for locally scheduled
// events); seq need only be monotone per xid. The engine's own seq
// counter is not consumed, so injection leaves local stamps untouched.
//
// Call it only from the receiving engine's own event context, or while
// the engine is not running (the shard barrier).
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

// NextEventTime reports the fire time of the earliest queued event.
func (e *Engine) NextEventTime() (Time, bool) {
	if len(e.pq) == 0 {
		return 0, false
	}
	return e.pq[0].at, true
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

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) Event {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.schedule(e.now.Add(d), callFunc, fn)
}

// AfterCall schedules cb(arg) to run d after the current virtual time —
// the closure-free form of After.
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
	n.cancelledGen = n.gen
	e.recycle(n)
}

// Stop makes Run return after the currently executing event completes.
// Calling Stop while the engine is not running is honored by the next
// Run, which consumes the stop and returns before executing any event;
// events stay queued for the Run after that.
func (e *Engine) Stop() { e.stopped = true }

// quietNow reports that no queued event can run at the current instant
// and no stop is pending. A zero-length scheduling point may then
// return without going through the queue: the wakeup it would schedule
// is guaranteed to be the very next event executed, so skipping the
// round-trip is unobservable in simulated behaviour.
func (e *Engine) quietNow() bool {
	return !e.stopped && (len(e.pq) == 0 || e.pq[0].at > e.now)
}

// Run executes events in order until the queue is empty, Stop is called,
// or the time limit set by RunUntil-style callers is reached. It returns
// the virtual time at which the simulation went quiescent.
//
// Procs that remain blocked on conditions when the queue drains do not
// keep the simulation alive: with no pending events nothing can ever wake
// them, so the run is quiescent.
func (e *Engine) Run() Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for !e.stopped && len(e.pq) > 0 {
		n := e.pq[0]
		if e.limit != 0 && n.at > e.limit {
			// Past the horizon: leave it queued and stop.
			break
		}
		if n.at < e.now {
			panic("sim: event queue went backwards")
		}
		e.heapRemove(0)
		e.now = n.at
		e.fired++
		cb, arg := n.cb, n.arg
		// Recycle before the callback so it can reuse the node for
		// whatever it schedules; the generation bump makes a self-Cancel
		// from inside the callback a no-op.
		e.recycle(n)
		cb(arg)
	}
	e.stopped = false
	return e.now
}

// RunFor runs the simulation until the virtual clock would pass now+d;
// events scheduled later stay queued. It returns the time reached.
func (e *Engine) RunFor(d time.Duration) Time {
	return e.RunUntil(e.now.Add(d))
}

// RunUntil runs the simulation until the virtual clock would pass t;
// events scheduled after t remain queued and the clock is advanced to t.
func (e *Engine) RunUntil(t Time) Time {
	e.runTo(t)
	if e.now < t {
		e.now = t
	}
	return e.now
}

// runTo executes events with at ≤ t but, unlike RunUntil, leaves the
// clock at the last executed event rather than advancing it to t. The
// shard scheduler uses it for lookahead windows: an idle shard's clock
// must not jump to the window edge, or a later-injected event could
// land in its apparent past.
func (e *Engine) runTo(t Time) {
	prev := e.limit
	e.limit = t
	e.Run()
	e.limit = prev
}

// advanceTo moves an idle engine's clock forward to t (a no-op if the
// clock is already past t). The shard scheduler applies the RunUntil
// clock-advance contract group-wide with it once all windows are done.
func (e *Engine) advanceTo(t Time) {
	if e.running {
		panic("sim: advanceTo during Run")
	}
	if e.now < t {
		e.now = t
	}
}

// Pending reports the number of events in the queue.
func (e *Engine) Pending() int { return len(e.pq) }

// Events returns the cumulative number of events the engine has
// executed across all Run calls — the denominator for wall-clock
// events/sec measurements.
func (e *Engine) Events() uint64 { return e.fired }

// Shutdown terminates all live Procs and their coroutines. A blocked
// proc is unwound through its deferred calls; a proc that never started
// never runs its body. The engine must not be running. After Shutdown
// the engine can still schedule plain events but all procs are gone. It
// is safe to call multiple times.
func (e *Engine) Shutdown() {
	if e.running {
		panic("sim: Shutdown during Run")
	}
	for _, w := range e.workers {
		w.stop()
		if w.p != nil {
			w.p.done = true // already set unless the proc never started
		}
	}
	e.workers, e.idle = nil, nil
}
