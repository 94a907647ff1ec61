package metrics

import (
	"encoding/json"
	"testing"
)

func TestNilRegistryAndNilMetricsAreInert(t *testing.T) {
	var r *Registry
	h := r.HighWater("h")
	s := r.Quantiles("s", 0.5)
	if h != nil || s != nil {
		t.Fatalf("nil registry must hand out nil metrics")
	}
	r.Sample("x", KindCounter, func() int64 { return 1 })
	r.SampleDiag("y", KindGauge, func() int64 { return 1 })
	if r.Len() != 0 {
		t.Fatalf("nil registry Len = %d", r.Len())
	}
	if snap := r.Snapshot(true); snap != nil {
		t.Fatalf("nil registry snapshot = %v", snap)
	}

	// Mutators on nil handles must be safe no-ops.
	h.Observe(9)
	s.Observe(1.5)
	if h.Value() != 0 || s.Count() != 0 {
		t.Fatalf("nil metric accessors must return zero")
	}
	if s.Quantile(0.5) != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("nil sketch accessors must return zero")
	}
}

func TestNilMetricOpsZeroAlloc(t *testing.T) {
	var h *HighWater
	var s *Sketch
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(11)
		s.Observe(2.5)
	})
	if allocs != 0 {
		t.Errorf("disabled metric ops: %v allocs/op, want 0", allocs)
	}
}

func TestEnabledMetricOpsZeroAlloc(t *testing.T) {
	r := New()
	h := r.HighWater("h")
	s := r.Quantiles("s", 0.5, 0.99)
	for i := 0; i < 16; i++ { // past the sketch init phase
		s.Observe(float64(i))
	}
	v := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(int64(v))
		s.Observe(v)
		v += 1.5
	})
	if allocs != 0 {
		t.Errorf("enabled metric ops: %v allocs/op, want 0", allocs)
	}
}

func TestCounterGaugeHighWater(t *testing.T) {
	r := New()
	var count, level int64
	r.Sample("c", KindCounter, func() int64 { return count })
	r.Sample("g", KindGauge, func() int64 { return level })
	count, level = 5, 7
	if v, _ := r.Get("c"); v.Value != 5 || v.Kind != "counter" {
		t.Errorf("counter = %+v, want 5", v)
	}
	if v, _ := r.Get("g"); v.Value != 7 || v.Kind != "gauge" {
		t.Errorf("gauge = %+v, want 7", v)
	}
	h := r.HighWater("h")
	h.Observe(3)
	h.Observe(9)
	h.Observe(5)
	if h.Value() != 9 {
		t.Errorf("highwater = %d, want 9", h.Value())
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate registration must panic")
		}
	}()
	r := New()
	r.HighWater("same")
	r.Sample("same", KindGauge, func() int64 { return 0 })
}

func TestSnapshotCanonicalOrderAndDiagExclusion(t *testing.T) {
	r := New()
	r.HighWater("z/last").Observe(1)
	r.Sample("a/first", KindGauge, func() int64 { return 2 })
	r.Sample("m/sampled", KindCounter, func() int64 { return 42 })
	r.SampleDiag("b/diag", KindGauge, func() int64 { return 7 })

	canon := r.Snapshot(false)
	if len(canon) != 3 {
		t.Fatalf("canonical snapshot has %d entries, want 3", len(canon))
	}
	for i := 1; i < len(canon); i++ {
		if canon[i-1].Name >= canon[i].Name {
			t.Errorf("snapshot not sorted: %q before %q", canon[i-1].Name, canon[i].Name)
		}
	}
	for _, v := range canon {
		if v.Diag {
			t.Errorf("diagnostic metric %q leaked into canonical snapshot", v.Name)
		}
		if v.Name == "m/sampled" && v.Value != 42 {
			t.Errorf("sampled value = %d, want 42", v.Value)
		}
	}

	full := r.Snapshot(true)
	if len(full) != 4 {
		t.Fatalf("full snapshot has %d entries, want 4", len(full))
	}

	// Canonical snapshots must be byte-stable across repeated
	// marshals of the same state.
	b1, err := json.Marshal(canon)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(r.Snapshot(false))
	if string(b1) != string(b2) {
		t.Errorf("snapshot JSON differs across calls:\n%s\n%s", b1, b2)
	}
}

func TestSampleEvaluatedAtSnapshotTime(t *testing.T) {
	r := New()
	live := int64(0)
	r.Sample("live", KindGauge, func() int64 { return live })
	live = 99
	v, ok := r.Get("live")
	if !ok || v.Value != 99 {
		t.Fatalf("Get(live) = %+v ok=%v, want 99", v, ok)
	}
}

func TestSketchSnapshotFields(t *testing.T) {
	r := New()
	s := r.Quantiles("lat", 0.5, 0.9)
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	v, ok := r.Get("lat")
	if !ok {
		t.Fatal("sketch metric missing")
	}
	if v.Kind != "quantile" || v.Count != 100 || v.Min != 1 || v.Max != 100 {
		t.Errorf("sketch value = %+v", v)
	}
	if len(v.Quantiles) != 2 || v.Quantiles[0].Q != 0.5 || v.Quantiles[1].Q != 0.9 {
		t.Errorf("quantile list = %+v", v.Quantiles)
	}
}
