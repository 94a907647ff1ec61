// Package metrics is the deterministic telemetry plane: typed metric
// families (sampled counters and gauges, high-water marks, streaming
// quantile sketches) registered per component under a Registry and
// snapshotted into a canonical, seed-stable JSON document.
//
// Design rules, in priority order:
//
//  1. Observability must not perturb the simulation. No metric op
//     touches engine state, schedules events, or draws randomness.
//  2. Allocation-free when idle. A nil *Registry hands out nil metric
//     pointers, and every mutator is safe (a no-op) on a nil
//     receiver, so instrumented hot paths pay one predictable branch
//     and zero allocations when telemetry is off. Enabled mutators
//     are allocation-free too (fixed-size state, pinned by
//     AllocsPerRun tests).
//  3. Snapshots are canonical: metrics sort by name, structs encode
//     with a fixed field order (no maps), and no wall-clock state is
//     embedded — the same seed yields byte-identical snapshots on
//     every run and at any worker count.
//
// Two observation styles coexist:
//
//   - Push metrics (HighWater/Sketch handles) for values that must be
//     observed continuously (queue occupancy, per-PDU latency). The
//     component stores the pointer and mutates it inline.
//   - Sampled counters and gauges (Sample/SampleDiag) for values a
//     component already tracks in its own Stats struct. The registry
//     stores a closure that is evaluated once, at snapshot time — zero
//     hot-path cost.
//
// Metrics whose value legitimately depends on the execution substrate
// (engine internals, worker count, wall clock) are registered via the Diag
// variants and excluded from canonical snapshots; they never appear
// in byte-compared artifacts.
package metrics

import (
	"fmt"
	"sort"
)

// Kind classifies a metric for snapshot consumers.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHighWater
	KindQuantile
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHighWater:
		return "highwater"
	case KindQuantile:
		return "quantile"
	}
	return "unknown"
}

// HighWater retains the maximum observed value. All methods are
// no-ops on a nil receiver.
type HighWater struct{ v int64 }

// Observe records v if it exceeds the current maximum.
func (h *HighWater) Observe(v int64) {
	if h != nil && v > h.v {
		h.v = v
	}
}

// Value returns the maximum observed so far (0 on nil).
func (h *HighWater) Value() int64 {
	if h == nil {
		return 0
	}
	return h.v
}

// entry is one registered metric in registration order.
type entry struct {
	name string
	kind Kind
	diag bool // excluded from canonical snapshots

	h      *HighWater
	s      *Sketch
	sample func() int64 // lazily evaluated at snapshot time
}

// Registry holds the metrics of one experiment. A nil *Registry is
// the disabled plane: every constructor returns nil and every
// Sample registration is a no-op.
//
// Registration must happen single-threaded (topology construction
// time). Runtime mutation of a push metric happens on the engine that
// owns the instrumented component, one event at a time, and snapshots
// are taken after the run quiesces, so no locking is needed.
type Registry struct {
	entries []entry
	index   map[string]int
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{index: make(map[string]int)}
}

func (r *Registry) add(e entry) {
	if _, dup := r.index[e.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", e.name))
	}
	r.index[e.name] = len(r.entries)
	r.entries = append(r.entries, e)
}

// HighWater registers and returns a push high-water mark (nil if r is
// nil).
func (r *Registry) HighWater(name string) *HighWater {
	if r == nil {
		return nil
	}
	h := &HighWater{}
	r.add(entry{name: name, kind: KindHighWater, h: h})
	return h
}

// Quantiles registers and returns a streaming quantile sketch
// targeting the given quantiles (nil if r is nil). Values are
// dimensionless from the registry's point of view; by convention the
// repo observes microseconds of simulated time.
func (r *Registry) Quantiles(name string, qs ...float64) *Sketch {
	if r == nil {
		return nil
	}
	s := NewSketch(qs...)
	r.add(entry{name: name, kind: KindQuantile, s: s})
	return s
}

// Sample registers a canonical sampled metric: fn is evaluated at
// snapshot time. Use for values a component already tracks in its own
// stats — zero hot-path cost. No-op if r is nil.
func (r *Registry) Sample(name string, kind Kind, fn func() int64) {
	if r == nil {
		return
	}
	r.add(entry{name: name, kind: kind, sample: fn})
}

// SampleDiag registers a diagnostic sampled metric: evaluated at
// snapshot time but excluded from canonical snapshots because its
// value depends on the execution substrate (engine internals,
// workers, wall clock) rather than on simulated behaviour. No-op if r is nil.
func (r *Registry) SampleDiag(name string, kind Kind, fn func() int64) {
	if r == nil {
		return
	}
	r.add(entry{name: name, kind: kind, diag: true, sample: fn})
}

// Len returns the number of registered metrics (0 on nil).
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.entries)
}

// QuantileValue is one (q, estimate) pair in a snapshot.
type QuantileValue struct {
	Q float64 `json:"q"`
	V float64 `json:"v"`
}

// Value is one metric in a snapshot. Scalar kinds use Value;
// quantile sketches use Count/Min/Max/Quantiles.
type Value struct {
	Name      string          `json:"name"`
	Kind      string          `json:"kind"`
	Diag      bool            `json:"diag,omitempty"`
	Value     int64           `json:"value"`
	Count     int64           `json:"count,omitempty"`
	Min       float64         `json:"min,omitempty"`
	Max       float64         `json:"max,omitempty"`
	Quantiles []QuantileValue `json:"quantiles,omitempty"`
}

// Snapshot materializes the registry. Canonical snapshots
// (includeDiag=false) contain only simulated-behaviour metrics and
// are byte-identical per seed at any worker count once JSON
// encoded: entries sort by name and contain no maps or timestamps.
// Nil registries snapshot to nil.
func (r *Registry) Snapshot(includeDiag bool) []Value {
	if r == nil {
		return nil
	}
	out := make([]Value, 0, len(r.entries))
	for i := range r.entries {
		e := &r.entries[i]
		if e.diag && !includeDiag {
			continue
		}
		out = append(out, e.value())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Get returns the snapshot Value of a single metric by name (zero
// Value and false if absent or r is nil). Intended for tests and
// report tables.
func (r *Registry) Get(name string) (Value, bool) {
	if r == nil {
		return Value{}, false
	}
	i, ok := r.index[name]
	if !ok {
		return Value{}, false
	}
	return r.entries[i].value(), true
}

// value evaluates e into its snapshot Value.
func (e *entry) value() Value {
	v := Value{Name: e.name, Kind: e.kind.String(), Diag: e.diag}
	switch {
	case e.sample != nil:
		v.Value = e.sample()
	case e.h != nil:
		v.Value = e.h.Value()
	case e.s != nil:
		v.Count = e.s.Count()
		if v.Count > 0 {
			v.Min, v.Max = e.s.Min(), e.s.Max()
			v.Quantiles = make([]QuantileValue, 0, len(e.s.qs))
			for _, q := range e.s.qs {
				v.Quantiles = append(v.Quantiles, QuantileValue{Q: q, V: e.s.Quantile(q)})
			}
		}
	}
	return v
}
