package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/sim"
)

// These tests guard the event-core overhaul's contract: event pooling,
// cell-train delivery, and the zero-length-sleep fast path are pure
// performance changes — a fixed seed must yield bit-for-bit identical
// simulated results. Each experiment runs twice on fresh systems and
// the outcomes are compared exactly (no tolerance).

func TestLatencyDeterministic(t *testing.T) {
	run := func() time.Duration {
		tb := NewTestbed(alOptions())
		defer tb.Shutdown()
		d, err := tb.RunLatency(UDPIP, 1024, 3)
		if err != nil {
			t.Fatalf("RunLatency: %v", err)
		}
		return d
	}
	if a, b := run(), run(); a != b {
		t.Errorf("latency not deterministic: %v vs %v", a, b)
	}
}

func TestFigure3ReceiveDeterministic(t *testing.T) {
	run := func() (float64, board.Stats, sim.Time) {
		opt := alOptions()
		opt.Board = board.Config{RxDMA: board.DoubleCell}
		tb := NewTestbed(opt)
		defer tb.Shutdown()
		mbps, err := tb.RunReceiveThroughput(16384, 8)
		if err != nil {
			t.Fatalf("RunReceiveThroughput: %v", err)
		}
		return mbps, tb.B.Board.Stats(), tb.Eng.Now()
	}
	m1, s1, n1 := run()
	m2, s2, n2 := run()
	if m1 != m2 {
		t.Errorf("throughput not deterministic: %v vs %v Mbps", m1, m2)
	}
	if s1 != s2 {
		t.Errorf("board stats not deterministic:\n  %+v\n  %+v", s1, s2)
	}
	if n1 != n2 {
		t.Errorf("final clock not deterministic: %v vs %v", n1, n2)
	}
}

// TestLossSweepDeterministic is the fault plane's acceptance gate: a
// fault-injected loss sweep (burst loss plus corruption and
// duplication, so every injector and every degradation path draws from
// its stream) must deliver byte-exact payloads, leak nothing, and
// marshal to bit-identical JSON across two runs with the same seed.
func TestLossSweepDeterministic(t *testing.T) {
	run := func() []byte {
		res, err := RunLossSweep(LossSweep{
			Rates:       []float64{0.001, 0.01},
			CorruptProb: 0.001,
			DupProb:     0.001,
			Messages:    12,
			Seed:        77,
		})
		if err != nil {
			t.Fatalf("RunLossSweep: %v", err)
		}
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
