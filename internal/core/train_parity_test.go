package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// runFanInConfigured runs the fan-in workload on a fresh cluster built
// with opt and returns the full result (per-client goodput, fabric port
// counters, delivery window) plus the canonical telemetry snapshot.
func runFanInConfigured(t *testing.T, opt Options, w workload.FanIn) (*FanInResult, []metrics.Value) {
	t.Helper()
	reg := metrics.New()
	opt.Metrics = reg
	cl := NewCluster(opt, w.Clients+1)
	defer cl.Shutdown()
	res, err := cl.RunFanIn(w)
	if err != nil {
		t.Fatalf("RunFanIn(%+v): %v", w, err)
	}
	return res, reg.Snapshot(false)
}

// TestTrainForwardingMatchesPerCellFabric pins the tentpole invariant of
// the switched fast path: train-preserving forwarding (virtual FIFO
// occupancy computed arithmetically) produces results — deliveries,
// goodput, drop counts, per-port high-water marks, and every telemetry
// sample including the queue-delay sketch — identical to the per-cell
// queue/arbiter machine, in the lossless paced regime, in incast
// collapse, and on lossy, randomly skewed links.
func TestTrainForwardingMatchesPerCellFabric(t *testing.T) {
	regimes := []struct {
		name string
		w    workload.FanIn
		link atm.LinkConfig
	}{
		{"paced", workload.FanIn{
			Clients: 3, MessageBytes: 4096, Messages: 4,
			Gap:     2 * time.Millisecond,
			Stagger: 500 * time.Microsecond,
		}, atm.LinkConfig{}},
		// Gap 0: all clients blast at full rate and the switch's output
		// queue overflows, so trains split around tail-drops mid-PDU.
		// 6×16 KB concurrent bursts overrun the default 256-cell output
		// queue (the test asserts drops actually happened).
		{"incast", workload.FanIn{Clients: 6, MessageBytes: 16384, Messages: 2}, atm.LinkConfig{}},
		// The paced regime on links that lose 0.2% of cells and skew
		// each by up to 5µs: every lane's injector and skew stream is
		// consulted cell by cell, whichever machine feeds the link.
		{"lossy-skewed", workload.FanIn{
			Clients: 3, MessageBytes: 4096, Messages: 8,
			Gap:     2 * time.Millisecond,
			Stagger: 500 * time.Microsecond,
		}, atm.LinkConfig{
			Skew:  atm.QueueingSkew{Max: 5 * time.Microsecond},
			Fault: &fault.Config{Loss: fault.Bernoulli{P: 0.002}},
		}},
	}
	for _, reg := range regimes {
		t.Run(reg.name, func(t *testing.T) {
			train, trainSnap := runFanInConfigured(t, Options{Link: reg.link}, reg.w)
			if reg.name == "incast" && train.SwitchDropped == 0 {
				t.Fatal("incast regime recorded no switch drops; the test is not exercising train splits")
			}
			if reg.link.Fault != nil && train.Shortfall == 0 {
				t.Fatal("lossy regime lost no message; the test is not exercising link loss")
			}
			percell, percellSnap := runFanInConfigured(t, Options{Link: reg.link, PerCellFabric: true}, reg.w)
			if !reflect.DeepEqual(train, percell) {
				t.Errorf("train result differs from per-cell fabric:\ntrain:   %+v\npercell: %+v", train, percell)
			}
			if !reflect.DeepEqual(trainSnap, percellSnap) {
				t.Error("train metrics snapshot differs from per-cell fabric")
			}
		})
	}
}
