// Package fault is the deterministic fault-injection plane.
//
// The paper's premise is that "the underlying network is not reliable"
// (§2.3): real OSIRIS deployments saw skew, cell loss, and flaky links,
// and the adaptor software had to survive them. This package models the
// unreliability systematically: an Injector sits on a physical link —
// the one injection site — and decides, per cell, whether to drop,
// corrupt, or duplicate it.
//
// Determinism is the design center. Every injector draws from its own
// pseudo-random stream derived from (engine seed, site name) via
// sim.Engine.DeriveRand, so:
//
//   - a fixed seed reproduces every fault decision bit for bit;
//   - the engine has no shared RNG, and a link's skew model draws from
//     a stream of its own, so enabling fault injection on one link does
//     not perturb the skew draws the calibrated experiments depend on;
//   - adding an injection site never shifts another site's stream.
//
// Loss is pluggable: Bernoulli is the i.i.d. per-cell coin flip, while
// GilbertElliott models the bursty loss that switch queue overruns and
// marginal optics actually produce — the regime the reassembly
// timeouts and RDP backoff are designed to degrade gracefully under.
package fault

import (
	"math/rand"

	"repro/internal/sim"
)

// MaxPayloadBits is the domain the corruption bit index is drawn from:
// a full ATM cell payload. Callers reduce the drawn index modulo the
// actual payload length, so partial cells corrupt uniformly too.
const MaxPayloadBits = 44 * 8

// Config describes the fault mix for one injection site. The zero value
// injects nothing. One Config may be shared (read-only) by many
// injectors; each injector keeps its own RNG stream and loss state.
type Config struct {
	// Loss selects the loss process (nil means no loss).
	Loss LossModel
	// CorruptProb is the per-cell probability of flipping one uniformly
	// chosen payload bit — the error the AAL5 CRC exists to catch.
	CorruptProb float64
	// DupProb is the per-cell probability of delivering the cell twice.
	DupProb float64
}

// enabled reports whether the config can ever inject anything.
func (c *Config) enabled() bool {
	if c == nil {
		return false
	}
	return c.Loss != nil || c.CorruptProb > 0 || c.DupProb > 0
}

// Action is the injector's verdict for one cell. The zero Action (with
// CorruptBit -1) passes the cell through untouched.
type Action struct {
	// Drop discards the cell.
	Drop bool
	// Duplicate delivers a second copy immediately behind the original.
	Duplicate bool
	// CorruptBit is the payload bit index to flip, or -1 for none.
	// Callers reduce it modulo the cell's actual payload bit count.
	CorruptBit int
}

// Stats counts one injector's decisions. Cells counts every cell
// offered; the per-cause counters are not exclusive (a cell can be both
// corrupted and duplicated).
type Stats struct {
	Cells      int64
	Dropped    int64 // lost by the loss model
	Corrupted  int64
	Duplicated int64
}

// Add accumulates other into s (for aggregating across sites).
func (s *Stats) Add(other Stats) {
	s.Cells += other.Cells
	s.Dropped += other.Dropped
	s.Corrupted += other.Corrupted
	s.Duplicated += other.Duplicated
}

// LossModel is a per-cell loss process. start returns a fresh state
// machine so one shared Config can serve many independent sites.
type LossModel interface {
	start() lossState
}

type lossState interface {
	// lose advances the process one cell and reports whether that cell
	// is lost. It must draw from rng deterministically.
	lose(rng *rand.Rand) bool
}

// Bernoulli is i.i.d. per-cell loss with probability P.
type Bernoulli struct {
	P float64
}

func (b Bernoulli) start() lossState { return bernState{p: b.P} }

type bernState struct{ p float64 }

func (s bernState) lose(rng *rand.Rand) bool {
	return s.p > 0 && rng.Float64() < s.p
}

// GilbertElliott is the classic two-state burst-loss channel: a Good
// and a Bad state with per-cell transition probabilities and a loss
// probability in each state. With LossBad near 1 it produces the loss
// bursts that FIFO queue overruns generate (cf. the queue-management
// drop-policy literature in PAPERS.md), which stress reassembly very
// differently from i.i.d. loss: a burst takes out adjacent cells of
// the same PDU, including its Last cell and trailer.
type GilbertElliott struct {
	PGoodBad float64 // per-cell P(Good → Bad)
	PBadGood float64 // per-cell P(Bad → Good)
	LossGood float64 // per-cell loss probability in Good
	LossBad  float64 // per-cell loss probability in Bad
}

// MeanLoss returns the stationary cell-loss probability of the chain.
func (g GilbertElliott) MeanLoss() float64 {
	den := g.PGoodBad + g.PBadGood
	if den <= 0 {
		return g.LossGood
	}
	pBad := g.PGoodBad / den
	return (1-pBad)*g.LossGood + pBad*g.LossBad
}

// BurstLoss parameterizes a Gilbert–Elliott channel from its mean loss
// rate and mean burst length (cells lost per burst): the Bad state
// always loses (LossBad = 1), the Good state never does, the Bad-state
// sojourn is geometric with the given mean, and the Good→Bad rate is
// solved so the stationary loss equals mean.
func BurstLoss(mean, burstLen float64) GilbertElliott {
	if burstLen < 1 {
		burstLen = 1
	}
	if mean <= 0 {
		return GilbertElliott{PBadGood: 1}
	}
	if mean >= 1 {
		return GilbertElliott{PGoodBad: 1, LossBad: 1}
	}
	pBG := 1 / burstLen
	return GilbertElliott{
		PGoodBad: pBG * mean / (1 - mean),
		PBadGood: pBG,
		LossBad:  1,
	}
}

func (g GilbertElliott) start() lossState { return &geState{g: g} }

type geState struct {
	g   GilbertElliott
	bad bool
}

func (s *geState) lose(rng *rand.Rand) bool {
	// One transition draw per cell, always, so the stream is a fixed
	// function of the cell index regardless of outcomes.
	t := rng.Float64()
	if s.bad {
		if t < s.g.PBadGood {
			s.bad = false
		}
	} else {
		if t < s.g.PGoodBad {
			s.bad = true
		}
	}
	p := s.g.LossGood
	if s.bad {
		p = s.g.LossBad
	}
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return rng.Float64() < p
}

// Injector applies a Config to one cell path. A nil *Injector is valid
// and injects nothing — call sites hold one unconditionally and skip
// all cost when fault injection is off.
type Injector struct {
	cfg   *Config
	rng   *rand.Rand
	loss  lossState
	stats Stats
}

// New builds an injector for the given site, or returns nil when cfg
// injects nothing. The site name keys the injector's private RNG
// stream; distinct sites must use distinct names.
func New(e *sim.Engine, site string, cfg *Config) *Injector {
	if !cfg.enabled() {
		return nil
	}
	inj := &Injector{cfg: cfg, rng: e.DeriveRand("fault/" + site)}
	if cfg.Loss != nil {
		inj.loss = cfg.Loss.start()
	}
	return inj
}

// Apply decides the fate of one cell crossing the site. Safe on a nil
// receiver (pass-through).
func (inj *Injector) Apply() Action {
	act := Action{CorruptBit: -1}
	if inj == nil {
		return act
	}
	inj.stats.Cells++
	if inj.loss != nil && inj.loss.lose(inj.rng) {
		inj.stats.Dropped++
		act.Drop = true
		return act
	}
	if inj.cfg.CorruptProb > 0 && inj.rng.Float64() < inj.cfg.CorruptProb {
		act.CorruptBit = inj.rng.Intn(MaxPayloadBits)
		inj.stats.Corrupted++
	}
	if inj.cfg.DupProb > 0 && inj.rng.Float64() < inj.cfg.DupProb {
		act.Duplicate = true
		inj.stats.Duplicated++
	}
	return act
}

// Stats returns a snapshot of the injector's counters. Safe on a nil
// receiver (all zero). The Link.Stats snapshot discipline applies: read
// between engine steps.
func (inj *Injector) Stats() Stats {
	if inj == nil {
		return Stats{}
	}
	return inj.stats
}
