// Conservative parallel simulation: a ShardGroup runs several Engines —
// one per topology shard — concurrently, synchronized by link-latency
// lookahead.
//
// The protocol is classic conservative (CMB-style) windowing. Every
// cross-shard channel declares a positive lookahead: the minimum virtual
// delay between the instant a shard emits an event for another shard and
// the instant that event fires (for an ATM link, its propagation delay —
// a cell handed to the wire at t cannot arrive before t + PropDelay).
// With L the minimum lookahead over all channels, the group repeatedly:
//
//  1. finds T, the earliest pending event across all shards;
//  2. runs every shard with work in [T, T+L-1] concurrently — no shard
//     can receive a cross-shard event that fires inside the window, so
//     each advances independently and deterministically;
//  3. joins at a barrier and flushes the cross-shard channels, merging
//     every buffered event into its destination queue.
//
// Determinism does not come from the barrier alone: merged events carry
// the canonical stamp (at, schedAt, xid, seq) — fire time, the virtual
// instant the sending shard scheduled the event, the topology-stable
// channel id, and a per-channel sequence — and every engine's queue
// orders by exactly that key (see Engine.less). The stamp is a pure
// function of simulated behaviour, never of the partition or of
// wall-clock interleaving, so the merged execution is byte-identical at
// any shard count, on any GOMAXPROCS.
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// maxTime is the no-horizon sentinel for group runs.
const maxTime = Time(1<<63 - 1)

// ShardGroup coordinates a set of engines that simulate one partitioned
// topology. All member engines share one seed, so DeriveRand streams —
// keyed by (seed, site) — are identical no matter which shard a
// component lands on. Construct with NewShardGroup; the zero value is
// not usable.
type ShardGroup struct {
	engines   []*Engine
	lookahead Time // min over registered channels; 0 until one registers
	flushers  []func()
	nextXID   uint64
	lastLimit Time // end of the most recent window, for Inject validation

	mu    sync.Mutex
	sites map[string]int // DeriveRand site -> shard that first derived it

	workers []*shardWorker
	down    bool

	stats GroupStats
}

// GroupStats are scheduler-level diagnostics of a sharded run. They
// describe the execution substrate, not the simulation: windows and
// merge depth depend on the shard count, and BarrierStallNS is wall
// clock. They are therefore registered as diagnostic metrics only and
// never appear in canonical (byte-compared) snapshots.
type GroupStats struct {
	Windows        uint64 // lookahead windows executed
	Injected       uint64 // cross-shard events merged at barriers
	MaxMergeDepth  uint64 // largest per-window cross-shard merge batch
	BarrierStallNS int64  // wall time the coordinator spent waiting on shard workers
}

// Stats returns a snapshot of the group's scheduler diagnostics.
func (g *ShardGroup) Stats() GroupStats { return g.stats }

// NewShardGroup creates n engines, all seeded with seed, indexed
// 0..n-1. Run the simulation with Run/RunUntil on the group, not on the
// member engines.
func NewShardGroup(seed int64, n int) *ShardGroup {
	if n < 1 {
		panic("sim: a shard group needs at least 1 engine")
	}
	g := &ShardGroup{sites: make(map[string]int)}
	for i := 0; i < n; i++ {
		e := NewEngine(seed)
		e.shard = i
		e.group = g
		g.engines = append(g.engines, e)
	}
	return g
}

// Size returns the number of shards.
func (g *ShardGroup) Size() int { return len(g.engines) }

// Engine returns shard i's engine.
func (g *ShardGroup) Engine(i int) *Engine { return g.engines[i] }

// NextXID hands out the next cross-shard channel id (1, 2, 3, …).
// Channel ids are assigned in topology-construction order, which is a
// function of the topology alone — the same construction sequence runs
// at every shard count — so they are stable, partition-independent
// tie-breakers in the canonical event order.
func (g *ShardGroup) NextXID() uint64 {
	g.nextXID++
	return g.nextXID
}

// AddLookahead declares a cross-shard channel's minimum delay. The
// group's window length is the minimum over all declarations; d must be
// positive — a zero-lookahead channel would force zero-length windows.
func (g *ShardGroup) AddLookahead(d time.Duration) {
	if d <= 0 {
		panic("sim: cross-shard lookahead must be positive")
	}
	if g.lookahead == 0 || Time(d) < g.lookahead {
		g.lookahead = Time(d)
	}
}

// OnBarrier registers fn to run at every window barrier (and once more
// when the group quiesces), on the coordinator goroutine while every
// engine is idle. Cross-shard channels use it to flush their buffered
// events into the destination engines.
func (g *ShardGroup) OnBarrier(fn func()) { g.flushers = append(g.flushers, fn) }

// Inject merges one stamped event into dst at a barrier, after
// verifying the lookahead contract: the event must fire strictly after
// the window that produced it, or the conservative window was not safe
// and the run would silently diverge from serial.
func (g *ShardGroup) Inject(dst *Engine, at, schedAt Time, xid, seq uint64, cb func(any), arg any) {
	if at <= g.lastLimit {
		panic(fmt.Sprintf("sim: lookahead violation: cross-shard event at %v inside window ending %v", at, g.lastLimit))
	}
	g.stats.Injected++
	dst.InjectStamped(at, schedAt, xid, seq, cb, arg)
}

// registerSite records a DeriveRand site, panicking on any duplicate
// across the group: two components sharing a site would silently read
// one pseudo-random stream twice, which is exactly the partition-
// dependent coupling DeriveRand exists to prevent.
func (g *ShardGroup) registerSite(site string, shard int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, ok := g.sites[site]; ok {
		panic(fmt.Sprintf("sim: DeriveRand site %q derived twice (shards %d and %d): streams must never be shared", site, prev, shard))
	}
	g.sites[site] = shard
}

// DerivedSites returns every DeriveRand site recorded across the group,
// sorted.
func (g *ShardGroup) DerivedSites() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.sites))
	for s := range g.sites {
		out = append(out, s)
	}
	sortStrings(out)
	return out
}

// sortStrings is sort.Strings without dragging the import into the hot
// file twice (kept tiny and obvious).
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// shardWorker is one shard's persistent executor goroutine. Workers
// exist so a window costs two channel operations per active shard, not
// a goroutine spawn; they also give each engine a fixed goroutine, so
// an engine and its proc coroutines run on one goroutine at a time.
type shardWorker struct {
	eng  *Engine
	work chan Time // window limit; closed at shutdown
	done chan any  // recovered panic value, nil on success
}

func (w *shardWorker) loop() {
	for limit := range w.work {
		w.runWindow(limit)
	}
}

// goexitFailure reports that a proc body called runtime.Goexit on a
// shard worker; the coordinator repeats the Goexit on its own goroutine.
type goexitFailure struct{}

// runWindow executes one window and reports its outcome on done. A
// panic (a simulation bug or a proc panic re-raised on the engine
// goroutine) becomes a value the coordinator re-panics with, so
// failures surface on the caller's stack like they do in a serial run.
// A runtime.Goexit from a proc body (t.FailNow) ends this worker; it is
// reported as goexitFailure so the coordinator exits the same way.
func (w *shardWorker) runWindow(limit Time) {
	finished := false
	defer func() {
		r := recover()
		if r == nil && !finished {
			r = goexitFailure{}
		}
		w.done <- r
	}()
	w.eng.runTo(limit)
	finished = true
}

// startWorkers spawns the per-shard executors on first use.
func (g *ShardGroup) startWorkers() {
	if g.workers != nil || g.down {
		return
	}
	for _, e := range g.engines {
		w := &shardWorker{eng: e, work: make(chan Time), done: make(chan any)}
		g.workers = append(g.workers, w)
		go w.loop()
	}
}

// Run executes the whole group to quiescence — no shard has a pending
// event and no cross-shard event is in flight — and returns the latest
// engine clock. The serial-equivalence contract: every event fires at
// the same virtual time, with the same canonical order among equal
// times, as it would on a single engine simulating the whole topology.
func (g *ShardGroup) Run() Time {
	return g.run(maxTime)
}

// RunUntil executes the group until the virtual clock would pass t,
// then advances every shard's clock to t (the Engine.RunUntil
// contract, applied group-wide).
func (g *ShardGroup) RunUntil(t Time) Time {
	g.run(t)
	for _, e := range g.engines {
		e.advanceTo(t)
	}
	return t
}

func (g *ShardGroup) run(horizon Time) Time {
	if g.down {
		panic("sim: ShardGroup run after Shutdown")
	}
	g.startWorkers()
	for {
		// Earliest pending work anywhere. Cross-shard channels are always
		// empty here: every barrier flushes them all.
		t, ok := g.nextEventTime()
		if !ok || t > horizon {
			break
		}
		limit := horizon
		if g.lookahead > 0 {
			// Strict window [t, t+L-1]: anything a shard emits while
			// executing it fires at ≥ t+L, safely beyond the barrier.
			if wl := t + g.lookahead - 1; wl < limit {
				limit = wl
			}
		}
		g.lastLimit = limit
		g.stats.Windows++
		// Dispatch only shards with work in the window; an idle shard's
		// clock stays put so later injections can never land in its past.
		var active []*shardWorker
		for _, w := range g.workers {
			if next, ok := w.eng.NextEventTime(); ok && next <= limit {
				active = append(active, w)
				w.work <- limit
			}
		}
		waitStart := time.Now()
		var failure any
		for _, w := range active {
			if p := <-w.done; p != nil && failure == nil {
				failure = p
			}
		}
		g.stats.BarrierStallNS += time.Since(waitStart).Nanoseconds()
		if failure == (goexitFailure{}) {
			runtime.Goexit()
		}
		if failure != nil {
			panic(failure)
		}
		injectedBefore := g.stats.Injected
		for _, f := range g.flushers {
			f()
		}
		if depth := g.stats.Injected - injectedBefore; depth > g.stats.MaxMergeDepth {
			g.stats.MaxMergeDepth = depth
		}
	}
	return g.Now()
}

// nextEventTime returns the earliest pending event time across shards.
func (g *ShardGroup) nextEventTime() (Time, bool) {
	var min Time
	found := false
	for _, e := range g.engines {
		if t, ok := e.NextEventTime(); ok && (!found || t < min) {
			min = t
			found = true
		}
	}
	return min, found
}

// Now returns the latest clock across shards. Clocks agree at
// quiescence up to idle shards that stopped early; the maximum is the
// group-wide virtual time, matching what a serial engine would report.
func (g *ShardGroup) Now() Time {
	var max Time
	for _, e := range g.engines {
		if e.now > max {
			max = e.now
		}
	}
	return max
}

// Events sums the events executed across all shards — the denominator
// for wall-clock events/sec measurements of the sharded engine.
func (g *ShardGroup) Events() uint64 {
	var n uint64
	for _, e := range g.engines {
		n += e.Events()
	}
	return n
}

// Pending sums queued events across shards.
func (g *ShardGroup) Pending() int {
	n := 0
	for _, e := range g.engines {
		n += e.Pending()
	}
	return n
}

// Shutdown stops the worker goroutines and terminates every shard's
// procs. Safe to call multiple times; the group cannot run afterwards.
func (g *ShardGroup) Shutdown() {
	if g.down {
		return
	}
	g.down = true
	for _, w := range g.workers {
		close(w.work)
	}
	g.workers = nil
	for _, e := range g.engines {
		e.Shutdown()
	}
}
