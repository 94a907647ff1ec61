package core

import (
	"testing"

	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The quiesce check (Cluster.CheckPools) runs inside every experiment
// driver that drains the engine, and fails the run if any record pool's
// count of records out differs from the records live state holds. This
// runs it on small latency runs over both protocols — 20,000 bytes, so
// UDP/IP fragments and reassembles, and IP retains driver messages —
// and on a small fragmented receive-throughput run. It is short enough
// for the race detector's -short pass, which skips TestScenarios.
func TestExperimentsQuiesceWithEveryRecordBack(t *testing.T) {
	for _, kind := range []ProtoKind{ATMRaw, UDPIP} {
		tb := NewTestbed(dsOptions())
		if _, err := tb.RunLatency(kind, 20000, 2); err != nil {
			t.Errorf("RunLatency(%v): %v", kind, err)
		}
		tb.Shutdown()
	}
	tb := NewTestbed(alOptions())
	defer tb.Shutdown()
	if _, err := tb.RunReceiveThroughput(40000, 4); err != nil {
		t.Fatalf("RunReceiveThroughput: %v", err)
	}
	if err := tb.CheckPools(); err != nil {
		t.Errorf("after the run: %v", err)
	}
}

// cellRecords counts the records e's cell store holds, free or out.
func cellRecords(e *sim.Engine) int {
	s := atm.CellStore(e)
	return s.Free() + s.Outstanding()
}

// Each board reserves cell records at construction for its receive FIFO
// and the cells it holds in hand (DESIGN §7 "Records"), and that covers
// what the benchmark's workloads have in flight at once: a run takes
// every cell record from the reserve and makes none. This pins it for a
// Figure 3 receive point, which fills the receive FIFO, and for the
// 9-node cluster's paced fan-in and its unpaced incast, whose switch
// egress trains hold a full output queue.
func TestRunsMakeNoCellRecords(t *testing.T) {
	check := func(name string, e *sim.Engine, run func() error) {
		t.Helper()
		reserved := cellRecords(e)
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s := atm.CellStore(e); s.Outstanding() != 0 || s.Free() != reserved {
			t.Errorf("%s: %d cell records out and %d free after the run, %d reserved before it",
				name, s.Outstanding(), s.Free(), reserved)
		}
	}
	tb := NewTestbed(Options{Seed: 1, Board: board.Config{RxDMA: board.DoubleCell}})
	defer tb.Shutdown()
	check("fig3", tb.Eng, func() error { _, err := tb.RunReceiveThroughput(16384, 6); return err })

	fanIn := workload.DefaultFanIn()
	cl := NewCluster(Options{Seed: 1}, fanIn.Clients+1)
	defer cl.Shutdown()
	check("fan-in", cl.Eng, func() error { _, err := cl.RunFanIn(fanIn); return err })

	incast := workload.DefaultFanIn()
	incast.Gap, incast.Stagger = 0, 0
	opt := Options{Seed: 1, FabricMarkThreshold: 64}
	opt.Board.ReasmResync = true
	cl2 := NewCluster(opt, incast.Clients+1)
	defer cl2.Shutdown()
	check("incast", cl2.Eng, func() error {
		_, err := cl2.RunIncastRDP(IncastRDP{Workload: incast, Adaptive: true})
		return err
	})
}
