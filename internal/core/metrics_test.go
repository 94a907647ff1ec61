package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
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

// runInstrumentedFanIn runs pacedFanIn on a 4-node cluster and returns
// its result and the engine's event count.
func runInstrumentedFanIn(t *testing.T, reg *metrics.Registry, tl *trace.Timeline) (*FanInResult, uint64) {
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
	return res, cl.Eng.Events()
}

// TestMetricsAndTracingDoNotPerturbExperiment pins the tentpole
// invariant: enabling the full telemetry plane — every component's
// metric families plus typed trace recording — leaves the simulated
// outcome identical to the uninstrumented run, field for field, and
// runs the same events: recording selects no other switch machine. The
// train-forwarding switch the run uses records its queue counters.
func TestMetricsAndTracingDoNotPerturbExperiment(t *testing.T) {
	bare, bareEvents := runInstrumentedFanIn(t, nil, nil)
	tl := trace.NewTimeline()
	instr, instrEvents := runInstrumentedFanIn(t, metrics.New(), tl)
	if !reflect.DeepEqual(bare, instr) {
		t.Errorf("telemetry perturbed the experiment:\nbare:  %+v\ninstr: %+v", bare, instr)
	}
	if instrEvents != bareEvents {
		t.Errorf("the traced run executed %d events, the bare run %d", instrEvents, bareEvents)
	}
	var text strings.Builder
	if err := tl.WriteText(&text, []string{sim.CatQueue}, 0); err != nil {
		t.Fatal(err)
	}
	counters := 0
	for _, line := range strings.Split(text.String(), "\n") {
		if strings.Contains(line, " sw-port") && strings.Contains(line, " queue ") {
			counters++
		}
	}
	if counters == 0 {
		t.Error("the timeline holds no switch-port queue counters")
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
	res, _ := runInstrumentedFanIn(t, nil, nil)
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
