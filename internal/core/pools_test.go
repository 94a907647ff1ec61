package core

import "testing"

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
