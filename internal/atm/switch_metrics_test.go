package atm

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestSwitchForwardZeroAlloc pins the fan-in hot path: a cell crossing
// the fabric (route lookup, fault check, bounded-queue entry) allocates
// nothing — with the telemetry plane disabled AND enabled, under train
// forwarding AND the per-cell reference machine. The enqueue
// instrumentation is a nil-checked timestamp plus fixed-size counter
// updates, so turning metrics on must not add a single allocation per
// cell; and the per-cell machine is the correctness oracle the train
// path is diffed against, so it must stay alloc-free too. Each cell
// takes a record from the engine's cell store, reserved to hold a full
// queue, as a link delivery would hand it one.
func TestSwitchForwardZeroAlloc(t *testing.T) {
	for _, perCell := range []bool{false, true} {
		for _, on := range []bool{false, true} {
			e := sim.NewEngine(7)
			sw := NewSwitch(e, 2, SwitchConfig{})
			forward := sw.forward
			if perCell {
				forward = perCellFabric(sw).forward
			}
			if on {
				sw.RegisterMetrics(metrics.New(), "fabric")
			}
			if err := sw.Route(5, 1); err != nil {
				t.Fatal(err)
			}
			sim.Reserve(CellStore(e), make([]Cell, DefaultSwitchQueueCells))
			c := Cell{VCI: 5, Len: CellPayload}
			// The queue fills after QueueCells iterations and later cells
			// tail-drop; both the accept and drop paths must be alloc-free.
			allocs := testing.AllocsPerRun(1000, func() { forward(0, storeCell(e, c), 0) })
			if allocs != 0 {
				t.Errorf("percell=%v metrics=%v: forward allocated %.1f per cell, want 0", perCell, on, allocs)
			}
			e.Shutdown()
		}
	}
}

// storeCell takes a record from e's cell store holding c, as a link
// delivery hands the switch one.
func storeCell(e *sim.Engine, c Cell) *Cell {
	r := sim.TakeNew(CellStore(e))
	*r = c
	return r
}

// TestSwitchMetricsReportPortStats checks the registered per-port
// samples read through to the live counters.
func TestSwitchMetricsReportPortStats(t *testing.T) {
	e := sim.NewEngine(7)
	defer e.Shutdown()
	reg := metrics.New()
	sw := NewSwitch(e, 2, SwitchConfig{})
	sw.RegisterMetrics(reg, "fabric")
	if err := sw.Route(5, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sw.forward(0, storeCell(e, Cell{VCI: 5, Len: CellPayload}), 0)
	}
	sw.forward(0, storeCell(e, Cell{VCI: 99, Len: CellPayload}), 0) // no route
	if v, ok := reg.Get("fabric/port0/in"); !ok || v.Value != 4 {
		t.Errorf("port0/in = %+v, want 4", v)
	}
	if v, ok := reg.Get("fabric/port0/no_route"); !ok || v.Value != 1 {
		t.Errorf("port0/no_route = %+v, want 1", v)
	}
	if v, ok := reg.Get("fabric/port1/queue_high_water"); !ok || v.Value != 3 {
		t.Errorf("port1/queue_high_water = %+v, want 3", v)
	}
}
