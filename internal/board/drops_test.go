package board

import (
	"testing"

	"repro/internal/sim"
)

// dropCounters maps each typed drop event the board emits to the Stats
// counter it must match one for one.
var dropCounters = map[string]func(Stats) int64{
	"rx-fifo-overflow": func(s Stats) int64 { return s.CellsDroppedFIFO },
	"rx-fifo-quota":    func(s Stats) int64 { return s.CellsQuotaDropped },
	"reasm-timeout":    func(s Stats) int64 { return s.PDUsTimedOut },
	"dup-cell":         func(s Stats) int64 { return s.CellsDuplicate },
	"crc-mismatch":     func(s Stats) int64 { return s.PDUsCRCDropped },
	"pdu-abandoned":    func(s Stats) int64 { return s.PDUsDropped },
	"recv-ring-drop":   func(s Stats) int64 { return s.RecvRingDropped },
	"auth-violation":   func(s Stats) int64 { return s.Violations },
}

// dropOracle counts the typed drop events an engine emits, by name: the
// drop-accounting oracle that answers "where and why was this cell
// dropped?" from the trace plane alone.
type dropOracle map[string]int64

// watchDrops installs a counting recorder on e.
func watchDrops(e *sim.Engine) dropOracle {
	o := dropOracle{}
	e.SetRecorder(func(ev sim.TraceEvent) {
		if ev.Cat == sim.CatDrop {
			o[ev.Name]++
		}
	})
	return o
}

// check asserts every board drop counter equals its typed-event count
// and that no drop event outside that vocabulary was emitted.
func (o dropOracle) check(t *testing.T, st Stats) {
	t.Helper()
	for name, counter := range dropCounters {
		if got, want := o[name], counter(st); got != want {
			t.Errorf("%d %q events, Stats counter says %d", got, name, want)
		}
	}
	for name := range o {
		if dropCounters[name] == nil {
			t.Errorf("drop event %q has no Stats counter", name)
		}
	}
}
