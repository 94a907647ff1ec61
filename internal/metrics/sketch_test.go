package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// exactQ returns the interpolated exact quantile of data (which it
// sorts in place).
func exactQ(data []float64, q float64) float64 {
	sort.Float64s(data)
	return orderStat(data, q)
}

func checkAccuracy(t *testing.T, name string, data []float64, relTol map[float64]float64) {
	t.Helper()
	qs := make([]float64, 0, len(relTol))
	for q := range relTol {
		qs = append(qs, q)
	}
	sort.Float64s(qs)
	s := NewSketch(qs...)
	for _, x := range data {
		s.Observe(x)
	}
	sorted := append([]float64(nil), data...)
	for _, q := range qs {
		got := s.Quantile(q)
		want := exactQ(sorted, q)
		scale := math.Abs(want)
		if scale < 1e-9 {
			scale = 1
		}
		rel := math.Abs(got-want) / scale
		t.Logf("%s p%g: sketch=%.6g exact=%.6g rel-err=%.4f", name, q*100, got, want, rel)
		if rel > relTol[q] {
			t.Errorf("%s p%g: sketch=%.6g exact=%.6g rel-err=%.4f > %.4f",
				name, q*100, got, want, rel, relTol[q])
		}
	}
}

func TestSketchAccuracyUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, 50000)
	for i := range data {
		data[i] = rng.Float64()
	}
	checkAccuracy(t, "uniform", data, map[float64]float64{
		0.50: 0.02, 0.90: 0.02, 0.99: 0.02,
	})
}

func TestSketchAccuracyHeavyTailed(t *testing.T) {
	// Pareto with alpha = 1.5: infinite variance, the regime the
	// ROADMAP's flow-churn generators care about.
	rng := rand.New(rand.NewSource(2))
	data := make([]float64, 50000)
	for i := range data {
		u := rng.Float64()
		data[i] = math.Pow(1-u, -1/1.5)
	}
	checkAccuracy(t, "pareto", data, map[float64]float64{
		0.50: 0.05, 0.90: 0.10, 0.99: 0.25,
	})
}

func TestSketchAccuracyAdversarialSorted(t *testing.T) {
	n := 20000
	asc := make([]float64, n)
	desc := make([]float64, n)
	for i := 0; i < n; i++ {
		asc[i] = float64(i + 1)
		desc[i] = float64(n - i)
	}
	tol := map[float64]float64{0.50: 0.05, 0.90: 0.05, 0.99: 0.05}
	checkAccuracy(t, "ascending", asc, tol)
	checkAccuracy(t, "descending", desc, tol)
}

func TestSketchSmallNExact(t *testing.T) {
	s := NewSketch(0.5, 0.9)
	for _, x := range []float64{30, 10, 20} {
		s.Observe(x)
	}
	if got := s.Quantile(0.5); got != 20 {
		t.Errorf("p50 of {10,20,30} = %g, want 20", got)
	}
	if s.Min() != 10 || s.Max() != 30 || s.Count() != 3 {
		t.Errorf("min/max/count = %g/%g/%d", s.Min(), s.Max(), s.Count())
	}
}

func TestSketchDeterministicState(t *testing.T) {
	mk := func() *Sketch {
		rng := rand.New(rand.NewSource(7))
		s := NewSketch(0.5, 0.99)
		for i := 0; i < 10000; i++ {
			s.Observe(rng.ExpFloat64())
		}
		return s
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical observation sequences produced different sketch state")
	}
}

func TestSketchTargetsSortedDeduped(t *testing.T) {
	s := NewSketch(0.99, 0.5, 0.99, 0.9)
	want := []float64{0.5, 0.9, 0.99}
	if !reflect.DeepEqual(s.Targets(), want) {
		t.Errorf("targets = %v, want %v", s.Targets(), want)
	}
}
