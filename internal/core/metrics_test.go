package core

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// pacedFanIn is a small paced incast with a real congestion signature:
// enough traffic that FIFO/queue occupancy moves, small enough for the
// test suite.
func pacedFanIn() workload.FanIn {
	return workload.FanIn{
		Clients: 3, MessageBytes: 4096, Messages: 6,
		Gap:     time.Millisecond,
		Stagger: 200 * time.Microsecond,
	}
}

func runInstrumentedFanIn(t *testing.T, reg *metrics.Registry, tl *trace.Timeline) *FanInResult {
	t.Helper()
	cl := NewCluster(Options{Metrics: reg}, 4)
	defer cl.Shutdown()
	if tl != nil {
		// The invariant under test is that recording changes nothing
		// the experiment reports.
		tl.Attach(cl.Eng, "cluster")
	}
	res, err := cl.RunFanIn(pacedFanIn())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMetricsAndTracingDoNotPerturbExperiment pins the tentpole
// invariant: enabling the full telemetry plane — every component's
// metric families plus typed trace recording — leaves the simulated
// outcome identical to the uninstrumented run, field for field.
func TestMetricsAndTracingDoNotPerturbExperiment(t *testing.T) {
	bare := runInstrumentedFanIn(t, nil, nil)
	tl := trace.NewTimeline()
	instr := runInstrumentedFanIn(t, metrics.New(), tl)
	if !reflect.DeepEqual(bare, instr) {
		t.Errorf("telemetry perturbed the experiment:\nbare:  %+v\ninstr: %+v", bare, instr)
	}
	if tl.Len() == 0 {
		t.Error("timeline recorded no events — the instrumented run was not actually traced")
	}
}

// TestMetricsSnapshotDeterministic pins the canonical-snapshot
// guarantee: byte-identical JSON run to run.
func TestMetricsSnapshotDeterministic(t *testing.T) {
	snap := func() []byte {
		reg := metrics.New()
		runInstrumentedFanIn(t, reg, nil)
		data, err := json.Marshal(reg.Snapshot(false))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if base, again := snap(), snap(); string(again) != string(base) {
		t.Error("snapshot differs between two identical runs")
	}
}

// TestFanInReportsPerPortStats checks the fan-in result surfaces each
// fabric port's counters with the server port first.
func TestFanInReportsPerPortStats(t *testing.T) {
	res := runInstrumentedFanIn(t, nil, nil)
	if len(res.Ports) != 4 {
		t.Fatalf("got %d port entries, want 4", len(res.Ports))
	}
	var forwarded int64
	for i, p := range res.Ports {
		if p.Port != i {
			t.Errorf("entry %d has port %d", i, p.Port)
		}
		forwarded += p.Forwarded
	}
	if forwarded != res.SwitchForwarded {
		t.Errorf("per-port forwarded sums to %d, aggregate says %d", forwarded, res.SwitchForwarded)
	}
	if res.Ports[0].Forwarded == 0 {
		t.Error("server port forwarded no cells")
	}
}
