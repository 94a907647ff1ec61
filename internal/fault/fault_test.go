package fault

import (
	"testing"

	"repro/internal/sim"
)

func TestNilAndZeroConfigInjectNothing(t *testing.T) {
	e := sim.NewEngine(1)
	if inj := New(e, "a", nil); inj != nil {
		t.Fatalf("nil config produced an injector")
	}
	if inj := New(e, "a", &Config{}); inj != nil {
		t.Fatalf("zero config produced an injector")
	}
	var inj *Injector
	act := inj.Apply()
	if act.Drop || act.Duplicate || act.CorruptBit != -1 {
		t.Fatalf("nil injector acted: %+v", act)
	}
	if s := inj.Stats(); s != (Stats{}) {
		t.Fatalf("nil injector has stats: %+v", s)
	}
}

func TestBernoulliRateAndDeterminism(t *testing.T) {
	cfg := &Config{Loss: Bernoulli{P: 0.1}}
	run := func() (dropped int64, seq []bool) {
		e := sim.NewEngine(42)
		inj := New(e, "link", cfg)
		for i := 0; i < 10000; i++ {
			seq = append(seq, inj.Apply().Drop)
		}
		return inj.Stats().Dropped, seq
	}
	d1, s1 := run()
	d2, s2 := run()
	if d1 != d2 {
		t.Fatalf("drop count not deterministic: %d vs %d", d1, d2)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("drop sequence diverges at cell %d", i)
		}
	}
	if d1 < 800 || d1 > 1200 {
		t.Errorf("Bernoulli(0.1) dropped %d/10000, far from 1000", d1)
	}
}

func TestDistinctSitesDistinctStreams(t *testing.T) {
	e := sim.NewEngine(42)
	cfg := &Config{Loss: Bernoulli{P: 0.5}}
	a := New(e, "siteA", cfg)
	b := New(e, "siteB", cfg)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Apply().Drop == b.Apply().Drop {
			same++
		}
	}
	if same == 1000 {
		t.Errorf("siteA and siteB produced identical drop sequences")
	}
}

func TestGilbertElliottBurstsAndMean(t *testing.T) {
	mean, burst := 0.01, 8.0
	g := BurstLoss(mean, burst)
	if got := g.MeanLoss(); got < mean*0.999 || got > mean*1.001 {
		t.Fatalf("BurstLoss mean = %v, want %v", got, mean)
	}
	e := sim.NewEngine(7)
	inj := New(e, "ge", &Config{Loss: g})
	const n = 400000
	dropped, bursts := 0, 0
	inBurst := false
	for i := 0; i < n; i++ {
		if inj.Apply().Drop {
			dropped++
			if !inBurst {
				bursts++
				inBurst = true
			}
		} else {
			inBurst = false
		}
	}
	rate := float64(dropped) / n
	if rate < mean/2 || rate > mean*2 {
		t.Errorf("empirical loss %v far from configured mean %v", rate, mean)
	}
	if bursts == 0 {
		t.Fatalf("no loss bursts observed")
	}
	meanBurst := float64(dropped) / float64(bursts)
	// Consecutive losses per visit to Bad: geometric with mean ~burst.
	if meanBurst < burst/2 || meanBurst > burst*2 {
		t.Errorf("mean burst length %v far from configured %v", meanBurst, burst)
	}
}

func TestCorruptDupDraws(t *testing.T) {
	e := sim.NewEngine(3)
	inj := New(e, "mix", &Config{CorruptProb: 0.5, DupProb: 0.5})
	var corrupted, duplicated int
	for i := 0; i < 2000; i++ {
		act := inj.Apply()
		if act.Drop {
			t.Fatalf("dropped with no loss model")
		}
		if act.CorruptBit >= 0 {
			corrupted++
			if act.CorruptBit >= MaxPayloadBits {
				t.Fatalf("corrupt bit %d out of range", act.CorruptBit)
			}
		}
		if act.Duplicate {
			duplicated++
		}
	}
	for name, n := range map[string]int{"corrupted": corrupted, "duplicated": duplicated} {
		if n < 700 || n > 1300 {
			t.Errorf("%s = %d/2000, far from 1000", name, n)
		}
	}
	s := inj.Stats()
	if s.Cells != 2000 || s.Corrupted != int64(corrupted) || s.Duplicated != int64(duplicated) {
		t.Errorf("stats inconsistent: %+v", s)
	}
}
