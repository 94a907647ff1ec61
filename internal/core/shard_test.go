package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/workload"
)

// Partitioning a topology over a conservative-parallel ShardGroup is a
// pure performance change, so every experiment must produce
// byte-identical results at any shard count. internal/scenario's
// TestScenarios checks that for every registered scenario; the tests
// here cover what no scenario builds sharded. Each fingerprint includes
// the final virtual clock and the behavioural counters, compared
// exactly (no tolerance) against the serial inline path.

var shardCounts = []int{1, 2, 4}

func requireInvariant(t *testing.T, name string, run func(shards int) string) {
	t.Helper()
	want := run(1)
	for _, k := range shardCounts[1:] {
		if got := run(k); got != want {
			t.Errorf("%s diverges at shards=%d:\nserial:  %s\nsharded: %s", name, k, want, got)
		}
	}
}

// TestFanInFaultShardInvariance exercises the paced cross-shard link
// path: a fault plane on the fabric links (burst loss, corruption,
// duplication) forces every link onto the per-cell pacing machine,
// whose injector draws come from partition-independent site-derived
// streams — so even the lossy run must be byte-identical at any shard
// count.
func TestFanInFaultShardInvariance(t *testing.T) {
	requireInvariant(t, "fanin-fault", func(shards int) string {
		opt := dsOptions()
		opt.Shards = shards
		opt.Link.Fault = &fault.Config{
			Loss:        fault.BurstLoss(0.002, 2),
			CorruptProb: 0.001,
			DupProb:     0.001,
		}
		cl := NewCluster(opt, 4)
		defer cl.Shutdown()
		res, err := cl.RunFanIn(workload.FanIn{
			Clients:      3,
			MessageBytes: 2048,
			Messages:     6,
			Gap:          500 * time.Microsecond,
		})
		if err != nil {
			t.Fatalf("RunFanIn(shards=%d): %v", shards, err)
		}
		// Corrupt deliveries are possible here (UDP checksum off), but
		// they are deterministic, so they belong in the fingerprint.
		return fmt.Sprintf("%+v now=%v fault=%+v", res, cl.Now(), cl.Fabric.FaultStats())
	})
}

// TestDeriveRandSitesPartitionIndependent pins the site sets: the same
// topology must derive exactly the same DeriveRand sites — collision-
// free by the group's duplicate panic — no matter how it is sharded,
// because every derived stream is a pure function of (seed, site).
func TestDeriveRandSitesPartitionIndependent(t *testing.T) {
	sites := func(shards int) string {
		opt := dsOptions()
		opt.Shards = shards
		opt.Link.Fault = &fault.Config{CorruptProb: 0.001}
		cl := NewCluster(opt, 4)
		defer cl.Shutdown()
		if _, err := cl.RunFanIn(workload.FanIn{Clients: 3, MessageBytes: 1024, Messages: 2}); err != nil {
			t.Fatalf("RunFanIn(shards=%d): %v", shards, err)
		}
		return fmt.Sprintf("%q", cl.DerivedSites())
	}
	want := sites(1)
	if want == `[]` {
		t.Fatal("fault-injected cluster derived no sites — the test covers nothing")
	}
	for _, k := range shardCounts[1:] {
		if got := sites(k); got != want {
			t.Errorf("derived sites differ at shards=%d:\nserial:  %s\nsharded: %s", k, want, got)
		}
	}
}

// TestShardedClusterNoGoroutineLeak: the shard workers, every engine's
// procs, and the cross-link machinery must all be gone after Shutdown
// (the parexp leak-check pattern).
func TestShardedClusterNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		opt := dsOptions()
		opt.Shards = 4
		cl := NewCluster(opt, 4)
		if _, err := cl.RunFanIn(workload.FanIn{Clients: 3, MessageBytes: 1024, Messages: 2}); err != nil {
			t.Fatalf("RunFanIn: %v", err)
		}
		cl.Shutdown()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Shutdown", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShardsRejectEngineRandConfigs: a config drawing per-cell
// randomness from the shared engine RNG must refuse to shard loudly —
// the draws are partition-dependent, and silence here would mean
// silently divergent results.
func TestShardsRejectEngineRandConfigs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCluster(Shards=2, LossRate>0) did not panic")
		}
	}()
	opt := dsOptions()
	opt.Shards = 2
	opt.Link.LossRate = 0.01
	NewCluster(opt, 2)
}

// TestShardClampAndPlan: shard counts clamp to the component count and
// the fabric always sits alone on shard 0 — the invariant that keeps
// the cross-link set identical at every shard count.
func TestShardClampAndPlan(t *testing.T) {
	opt := dsOptions()
	opt.Shards = 64
	cl := NewCluster(opt, 3)
	defer cl.Shutdown()
	p := cl.Plan()
	if p.Shards != 4 {
		t.Errorf("3-node cluster with Shards=64: got %d shards, want 4", p.Shards)
	}
	if p.FabricShard != 0 {
		t.Errorf("fabric on shard %d, want 0", p.FabricShard)
	}
	for i, s := range p.NodeShard {
		if s == p.FabricShard {
			t.Errorf("node %d shares shard %d with the fabric", i, s)
		}
	}
}
