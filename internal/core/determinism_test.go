package core

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestLossSweepDeterministic is the fault plane's acceptance gate: a
// fault-injected loss sweep (burst loss plus corruption and
// duplication, so every injector and every degradation path draws from
// its stream) must deliver byte-exact payloads, leak nothing, and
// marshal to bit-identical JSON across two runs with the same seed.
func TestLossSweepDeterministic(t *testing.T) {
	run := func() []byte {
		sweep := LossSweep{
			Rates:       []float64{0.001, 0.01},
			CorruptProb: 0.001,
			DupProb:     0.001,
			Messages:    12,
			Seed:        77,
		}
		var points []LossSweepPoint
		for _, rate := range sweep.Rates {
			pt, err := RunLossPoint(sweep, rate)
			if err != nil {
				t.Fatalf("rate %g: %v", rate, err)
			}
			points = append(points, pt)
		}
		res := sweep.Result(points)
		var totalLost int64
		for _, pt := range res.Points {
			// At these rates the session must survive: every message
			// delivered intact, not merely accounted for.
			if pt.Failed != 0 || pt.Delivered != pt.Sent || pt.Corrupt != 0 {
				t.Errorf("rate %g: failed=%d delivered=%d/%d corrupt=%d",
					pt.MeanLoss, pt.Failed, pt.Delivered, pt.Sent, pt.Corrupt)
			}
			if pt.OpenReassemblies != 0 || pt.HeldReasmBufs != 0 {
				t.Errorf("rate %g: leaked reassembly state: open=%d held=%d",
					pt.MeanLoss, pt.OpenReassemblies, pt.HeldReasmBufs)
			}
			totalLost += pt.CellsLost
		}
		if totalLost == 0 {
			t.Error("injectors dropped no cells across the sweep — it tested nothing")
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("loss sweep not deterministic:\n%s\n%s", a, b)
	}
}
