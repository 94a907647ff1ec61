package metrics

import (
	"fmt"
	"sort"
)

// Sketch estimates quantiles of a value stream with the P² algorithm
// (Jain & Chlamtac, CACM 1985): five markers per target quantile,
// adjusted with a piecewise-parabolic prediction as observations
// arrive. State is fixed-size — no samples are retained — and every
// update is plain float64 arithmetic applied in observation order, so
// for a deterministic observation sequence the sketch state (and the
// JSON snapshot derived from it) is bit-identical on every run.
//
// All methods are no-ops (or zero) on a nil receiver, so hot paths
// can observe unconditionally when telemetry may be disabled.
type Sketch struct {
	qs    []float64 // target quantiles, ascending, deduped
	est   []p2      // one estimator per target, parallel to qs
	count int64
	min   float64
	max   float64
	buf   [5]float64 // first five observations, sorted (init phase)
}

// NewSketch builds a sketch targeting the given quantiles (each in
// (0,1)). With no arguments it targets p50/p90/p99.
func NewSketch(qs ...float64) *Sketch {
	if len(qs) == 0 {
		qs = []float64{0.50, 0.90, 0.99}
	}
	sorted := append([]float64(nil), qs...)
	sort.Float64s(sorted)
	uniq := sorted[:0]
	for i, q := range sorted {
		if q <= 0 || q >= 1 {
			panic(fmt.Sprintf("metrics: quantile %v outside (0,1)", q))
		}
		if i == 0 || q != sorted[i-1] {
			uniq = append(uniq, q)
		}
	}
	s := &Sketch{qs: uniq, est: make([]p2, len(uniq))}
	for i := range s.est {
		s.est[i].q = uniq[i]
	}
	return s
}

// Targets returns the target quantiles (nil on a nil sketch).
func (s *Sketch) Targets() []float64 {
	if s == nil {
		return nil
	}
	return s.qs
}

// Observe feeds one value into the sketch. Allocation-free.
func (s *Sketch) Observe(x float64) {
	if s == nil {
		return
	}
	if s.count == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.count++
	if s.count <= 5 {
		i := int(s.count) - 1
		for i > 0 && s.buf[i-1] > x {
			s.buf[i] = s.buf[i-1]
			i--
		}
		s.buf[i] = x
		if s.count == 5 {
			for k := range s.est {
				s.est[k].init(s.buf)
			}
		}
		return
	}
	for k := range s.est {
		s.est[k].observe(x)
	}
}

// Count returns the number of observations (0 on nil).
func (s *Sketch) Count() int64 {
	if s == nil {
		return 0
	}
	return s.count
}

// Min returns the smallest observation (0 before any observation).
func (s *Sketch) Min() float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 before any observation).
func (s *Sketch) Max() float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	return s.max
}

// Quantile returns the current estimate for q, which must be one of
// the sketch's target quantiles. With five or fewer observations the
// value is exact (interpolated order statistic). Returns 0 when
// empty or nil.
func (s *Sketch) Quantile(q float64) float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	if s.count <= 5 {
		return orderStat(s.buf[:int(s.count)], q)
	}
	for i, tq := range s.qs {
		if tq == q {
			return s.est[i].h[2]
		}
	}
	panic(fmt.Sprintf("metrics: quantile %v not a sketch target", q))
}

// orderStat interpolates the q-th order statistic of a small sorted
// slice.
func orderStat(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// p2 is a single-quantile P² estimator: five marker heights h at
// (float) positions n, tracked against desired positions np moving by
// dn per observation.
type p2 struct {
	q  float64
	h  [5]float64
	n  [5]float64
	np [5]float64
	dn [5]float64
}

func (p *p2) init(sorted [5]float64) {
	q := p.q
	p.h = sorted
	p.n = [5]float64{1, 2, 3, 4, 5}
	p.np = [5]float64{1, 1 + 2*q, 1 + 4*q, 3 + 2*q, 5}
	p.dn = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
}

func (p *p2) observe(x float64) {
	var k int
	switch {
	case x < p.h[0]:
		p.h[0] = x
		k = 0
	case x >= p.h[4]:
		p.h[4] = x
		k = 3
	default:
		for k = 0; k < 3 && x >= p.h[k+1]; k++ {
		}
	}
	for i := k + 1; i < 5; i++ {
		p.n[i]++
	}
	for i := 0; i < 5; i++ {
		p.np[i] += p.dn[i]
	}
	for i := 1; i <= 3; i++ {
		d := p.np[i] - p.n[i]
		if (d >= 1 && p.n[i+1]-p.n[i] > 1) || (d <= -1 && p.n[i-1]-p.n[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			if hp := p.parabolic(i, sign); p.h[i-1] < hp && hp < p.h[i+1] {
				p.h[i] = hp
			} else {
				p.h[i] = p.linear(i, sign)
			}
			p.n[i] += sign
		}
	}
}

func (p *p2) parabolic(i int, d float64) float64 {
	return p.h[i] + d/(p.n[i+1]-p.n[i-1])*
		((p.n[i]-p.n[i-1]+d)*(p.h[i+1]-p.h[i])/(p.n[i+1]-p.n[i])+
			(p.n[i+1]-p.n[i]-d)*(p.h[i]-p.h[i-1])/(p.n[i]-p.n[i-1]))
}

func (p *p2) linear(i int, d float64) float64 {
	j := i + int(d)
	return p.h[i] + d*(p.h[j]-p.h[i])/(p.n[j]-p.n[i])
}
