package core

import (
	"runtime"
	"testing"
	"time"
)

// pending sums the queued events of a cluster, serial or sharded.
func pending(cl *Cluster) int {
	if cl.Group != nil {
		return cl.Group.Pending()
	}
	return cl.Eng.Pending()
}

// TestShutdownWithoutRun: tearing down a freshly built testbed or
// cluster runs no proc body — nothing is executed and nothing new is
// scheduled — and every proc coroutine is reaped.
func TestShutdownWithoutRun(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		for _, shards := range []int{1, 2} {
			opt := dsOptions()
			opt.Shards = shards
			tb := NewTestbed(opt)
			cl := NewCluster(Options{Shards: shards}, 3)
			for _, c := range []*Cluster{tb.Cluster, cl} {
				n := pending(c)
				c.Shutdown()
				if got := pending(c); got != n || c.Events() != 0 {
					t.Fatalf("shards=%d: Shutdown ran proc bodies: pending %d → %d, %d events",
						shards, n, got, c.Events())
				}
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Shutdown", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
