package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/hostsim"
	"repro/internal/metrics"
)

// span is one traced interval of wall-clock time, in nanoseconds since the
// tracer started. Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs pay nothing for it.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indexes into spans of the spans not yet ended
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do records fn as a span named name, nested in the innermost open span.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{ID: i + 1, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, i)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = int64(time.Since(t.t0))
}

// phase is what a timed stretch of a pass counts as.
type phase int

const (
	setupPhase phase = iota // construction calls: testbeds, clusters
	runPhase                // the experiment itself
	checkPhase              // verification and teardown
)

var phaseNames = [...]string{"setup", "run", "check"}

// meter accumulates one pass's host CPU time by phase, and the heap
// allocations of its run phases. A pass attaches depth, when set, to
// every engine it builds.
type meter struct {
	tr                *tracer
	depth             *depthSampler
	setup, run, check time.Duration
	mallocs, bytes    uint64
}

// cpuTime is the CPU time the process has used, user and system, on
// all its threads. Unlike wall time it leaves out the time the host
// gave the process's CPUs to others, which on a shared virtual machine
// varies from minute to minute by more than the benchmark's bounds.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("osirisbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// do times fn in CPU time as part of phase ph. Allocation counters are
// read outside the timed interval. Every construction and every run
// starts from a collected heap, so that host time does not depend on
// when the collector last ran. Before a construction the free memory
// also goes back to the OS: the construction then faults in all of its
// pages every time, and the peak resident memory does not depend on how
// the heap was fragmented.
func (m *meter) do(ph phase, fn func()) {
	var before runtime.MemStats
	switch ph {
	case setupPhase:
		debug.FreeOSMemory()
	case runPhase:
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
	var d time.Duration
	m.tr.do(phaseNames[ph], func() {
		start := cpuTime()
		fn()
		d = cpuTime() - start
	})
	switch ph {
	case setupPhase:
		m.setup += d
	case runPhase:
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		m.run += d
		m.mallocs += after.Mallocs - before.Mallocs
		m.bytes += after.TotalAlloc - before.TotalAlloc
	case checkPhase:
		m.check += d
	}
}

// layers collects the per-layer counts of a traced pass from the
// components' public Stats() and the telemetry registries. A nil
// *layers collects nothing.
type layers struct {
	sum    map[string]float64
	max    map[string]float64
	sketch map[string]metrics.Value // busiest instance of each sketch family
}

func newLayers() *layers {
	return &layers{sum: map[string]float64{}, max: map[string]float64{}, sketch: map[string]metrics.Value{}}
}

func (l *layers) add(name string, v float64) {
	if l != nil {
		l.sum[name] += v
	}
}

func (l *layers) hi(name string, v float64) {
	if l != nil && v > l.max[name] {
		l.max[name] = v
	}
}

func (l *layers) board(s board.Stats) {
	l.add("board.combined_dmas", float64(s.CombinedDMAs))
	l.add("board.single_dmas", float64(s.SingleDMAs))
	l.add("board.fifo_dropped", float64(s.CellsDroppedFIFO))
	l.add("board.pdus_dropped", float64(s.PDUsDropped))
	l.add("board.rx_irqs", float64(s.RxIRQs))
	l.add("board.pdus_rx", float64(s.PDUsRx))
	l.add("board.quota_dropped", float64(s.CellsQuotaDropped))
	l.add("board.ring_dropped", float64(s.RecvRingDropped))
}

func (l *layers) driver(s driver.Stats) {
	l.add("driver.tx_stalls", float64(s.TxStalls))
	l.add("driver.rx_aborted", float64(s.RxAborted))
}

func (l *layers) host(h *hostsim.Host) {
	bs := h.Bus.Stats()
	l.add("bus.dma_words", float64(bs.DMAReadWords+bs.DMAWriteWords))
	cs := h.Cache.Stats()
	l.add("cache.read_hits", float64(cs.ReadHits))
	l.add("cache.read_misses", float64(cs.ReadMisses))
}

func (l *layers) nodes(ns []*core.Node) {
	if l == nil {
		return
	}
	for _, n := range ns {
		l.board(n.Board.Stats())
		l.driver(n.Drv.Stats())
		l.host(n.Host)
	}
}

func (l *layers) fabric(sw *atm.Switch) {
	if l == nil {
		return
	}
	s := sw.Stats()
	l.add("atm.switch_dropped", float64(s.Dropped))
	l.add("atm.switch_marked", float64(s.Marked))
	l.hi("atm.switch_high_water", float64(s.HighWater))
}

// sketchFamilies maps a registry name suffix to the per-layer metric
// family its quantiles are reported under.
var sketchFamilies = map[string]string{
	"/queue_delay_us":      "atm.queue_delay_us",
	"/board/reasm_span_us": "board.reasm_span_us",
}

// registry keeps, for each sketch family, the instance of r that saw the
// most observations if it saw more than any instance kept before.
func (l *layers) registry(r *metrics.Registry) {
	if l == nil {
		return
	}
	for _, v := range r.Snapshot(false) {
		if v.Kind != metrics.KindQuantile.String() || v.Count == 0 {
			continue
		}
		for suffix, fam := range sketchFamilies {
			if strings.HasSuffix(v.Name, suffix) && v.Count > l.sketch[fam].Count {
				l.sketch[fam] = v
			}
		}
	}
}

// quantile returns family fam's estimate at q, or 0 if no instance of
// the family observed anything.
func (l *layers) quantile(fam string, q float64) float64 {
	for _, qv := range l.sketch[fam].Quantiles {
		if qv.Q == q {
			return qv.V
		}
	}
	return 0
}
