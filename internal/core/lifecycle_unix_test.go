//go:build unix

package core

import (
	"runtime"
	"strings"
	"testing"
)

// TestBuildLeavesHostMemoryOffTheHeap: building a testbed or a 9-node
// cluster allocates little on the Go heap, because each host's 16 MB of
// physical memory is mapped from the OS (on the heap the two builds
// would take 34 MB and 154 MB), and Shutdown releases every node's
// memory.
func TestBuildLeavesHostMemoryOffTheHeap(t *testing.T) {
	for _, c := range []struct {
		name  string
		limit uint64
		build func() *Cluster
	}{
		{"NewTestbed", 2 << 20, func() *Cluster { return NewTestbed(Options{}).Cluster }},
		{"NewCluster(9)", 8 << 20, func() *Cluster { return NewCluster(Options{}, 9) }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cl := c.build()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= c.limit {
			t.Errorf("%s allocated %.1f MB on the heap, want under %d MB", c.name, float64(got)/(1<<20), c.limit>>20)
		}
		cl.Shutdown()
		for i, n := range cl.Nodes {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "beyond physical memory size") {
						t.Errorf("%s node %d: ReadWord after Shutdown panicked with %q, want the bounds message", c.name, i, msg)
					}
				}()
				n.Host.Mem.ReadWord(0)
			}()
		}
	}
}
