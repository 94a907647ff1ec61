package core

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// unpacedCollapse is the headline workload: the default 8×16KB fan-in
// with all pacing stripped — every client blasts its whole burst at
// the switch at once, the regime that collapses the unreliable stack.
func unpacedCollapse() workload.FanIn {
	w := workload.DefaultFanIn()
	w.Gap = 0
	w.Stagger = 0
	return w
}

// TestIncastAdaptiveUnpacedLossless is the tentpole acceptance bar:
// the adaptive transport (RTT-estimated timer, AIMD window, ECN from
// the fabric) delivers every message of the unpaced 8:1 incast through
// the default 256-cell switch queue, byte-verified at the server.
func TestIncastAdaptiveUnpacedLossless(t *testing.T) {
	res, err := RunIncastRDP(Options{FabricMarkThreshold: 64},
		IncastRDP{Workload: unpacedCollapse(), Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lossless() {
		t.Fatalf("adaptive incast not lossless: shortfall=%d corrupt=%d (delivered %d/%d)",
			res.Shortfall, res.Corrupt, res.Delivered, res.Sent)
	}
	if res.Delivered != 64 {
		t.Errorf("delivered %d, want 64", res.Delivered)
	}
	for _, c := range res.Clients {
		if !c.Acked {
			t.Errorf("client %d did not drain its window", c.Client)
		}
	}
	if res.Retransmits == 0 {
		t.Error("no retransmits — the queue never overflowed, so this is not the collapse regime")
	}
}

// TestIncastLegacyCollapses documents the problem the adaptive
// transport solves: the fixed-timer go-back-N sender, in the same
// regime, retransmits into the full queue in lockstep with its peers
// and cannot deliver the workload. The horizon is bounded — the
// interesting fact is the shortfall, not how long the storm grinds.
func TestIncastLegacyCollapses(t *testing.T) {
	res, err := RunIncastRDP(Options{FabricMarkThreshold: 64},
		IncastRDP{Workload: unpacedCollapse(), Adaptive: false, Horizon: 120 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shortfall == 0 {
		t.Fatal("legacy transport delivered the unpaced incast — the collapse scenario no longer collapses, update the experiment")
	}
	if res.SwitchDropped == 0 {
		t.Error("no switch drops under 8:1 unpaced fan-in")
	}
}

// TestIncastAdaptiveMetricsGate checks the telemetry wiring: the
// adaptive family appears only when Options.AdaptiveMetrics asks for
// it, so legacy experiments keep their exact metric name set.
func TestIncastAdaptiveMetricsGate(t *testing.T) {
	run := func(gate bool) *metrics.Registry {
		reg := metrics.New()
		w := workload.FanIn{Clients: 2, MessageBytes: 4096, Messages: 2}
		opt := Options{Metrics: reg, AdaptiveMetrics: gate, FabricQueueCells: 1024, FabricMarkThreshold: 128}
		if _, err := RunIncastRDP(opt, IncastRDP{Workload: w, Adaptive: true}); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	has := func(reg *metrics.Registry, name string) bool {
		for _, v := range reg.Snapshot(false) {
			if v.Name == name {
				return true
			}
		}
		return false
	}
	on, off := run(true), run(false)
	for _, name := range []string{"n1/rdp/fast_retx", "n1/rdp/ecn_echoed", "n1/rdp/rtt_samples"} {
		if !has(on, name) {
			t.Errorf("AdaptiveMetrics on: %s missing", name)
		}
		if has(off, name) {
			t.Errorf("AdaptiveMetrics off: %s present — legacy snapshots grow new names", name)
		}
	}
}
