//go:build unix

package core

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/dpm"
	"repro/internal/hostsim"
)

// TestBuildLeavesHostMemoryOffTheHeap: building a testbed or a 9-node
// cluster allocates little on the Go heap, because each host's 16 MB of
// physical memory, its cache's line store and tags (2 MB and 256 KB on a
// DEC 3000/600) and its board's 128 KB dual-port memory are mapped from
// the OS (on the heap the builds would take 34 MB, 154 MB and 5 MB), and
// Shutdown releases every node's memory, cache and dual-port memory. The
// builds measure 0.19 MB, 0.18 MB and 1.1 MB.
func TestBuildLeavesHostMemoryOffTheHeap(t *testing.T) {
	for _, c := range []struct {
		name  string
		limit uint64
		build func() *Cluster
	}{
		{"NewTestbed", 512 << 10, func() *Cluster { return NewTestbed(Options{}).Cluster }},
		{"NewTestbed(DEC3000/600)", 512 << 10, func() *Cluster { return NewTestbed(Options{Profile: hostsim.DEC3000_600()}).Cluster }},
		{"NewCluster(9)", 2 << 20, func() *Cluster { return NewCluster(Options{}, 9) }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cl := c.build()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= c.limit {
			t.Errorf("%s allocated %.2f MB on the heap, want under %.2f MB", c.name, float64(got)/(1<<20), float64(c.limit)/(1<<20))
		}
		cl.Shutdown()
		for i, n := range cl.Nodes {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "beyond physical memory size") {
						t.Errorf("%s node %d: a memory Read after Shutdown panicked with %q, want the bounds message", c.name, i, msg)
					}
				}()
				n.Host.Mem.Read(0, 4)
			}()
			func() {
				defer func() {
					// The cache fails on its own released store, before
					// it would reach memory.
					if _, ok := recover().(runtime.Error); !ok {
						t.Errorf("%s node %d: a cache Read after Shutdown did not fail a bounds check", c.name, i)
					}
				}()
				n.Host.Cache.Read(0, make([]byte, 4))
			}()
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "dpm: access at 0x0 beyond 0") {
						t.Errorf("%s node %d: dual-port ReadWord after Shutdown panicked with %q, want the bounds message", c.name, i, msg)
					}
				}()
				n.Board.DPM.ReadWord(nil, dpm.Board, 0)
			}()
		}
	}
}
