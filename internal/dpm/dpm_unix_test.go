//go:build unix

package dpm

import (
	"runtime"
	"testing"

	"repro/internal/bus"
	"repro/internal/sim"
)

// TestNewLeavesBytesOffTheHeap: the 128 KB come from an anonymous
// mapping, so building a dual-port memory allocates only its header on
// the Go heap.
func TestNewLeavesBytesOffTheHeap(t *testing.T) {
	e := sim.NewEngine(1)
	b := bus.New(e, bus.Config{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := New(e, b)
	runtime.ReadMemStats(&after)
	defer d.Release()
	if got := after.TotalAlloc - before.TotalAlloc; got >= Size/8 {
		t.Errorf("New allocated %d B on the heap, want under %d", got, Size/8)
	}
}
