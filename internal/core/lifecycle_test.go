package core

import (
	"runtime"
	"testing"
	"time"
)

// TestShutdownWithoutRun: tearing down a freshly built testbed or
// cluster runs no proc body — nothing is executed and nothing new is
// scheduled — and every proc coroutine is reaped.
func TestShutdownWithoutRun(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		tb := NewTestbed(dsOptions())
		cl := NewCluster(Options{}, 3)
		for _, c := range []*Cluster{tb.Cluster, cl} {
			n := c.Eng.Pending()
			c.Shutdown()
			if got := c.Eng.Pending(); got != n || c.Events() != 0 {
				t.Fatalf("Shutdown ran proc bodies: pending %d → %d, %d events", n, got, c.Events())
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
