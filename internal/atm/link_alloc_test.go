package atm

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
)

// measureLinkRun sends cells through l from a fresh proc and returns
// the heap allocations the whole run performed.
func measureLinkRun(e *sim.Engine, l *Link, cells int) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.Go("tx", func(p *sim.Proc) {
		for i := 0; i < cells; i++ {
			l.Send(p, Cell{Seq: uint32(i), Len: CellPayload})
		}
	})
	e.Run()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// Every link is a cell train: serialization and delivery times are
// arithmetic, one pooled walker event drains the train, and the
// Send→deliver path must not allocate per cell — fault-free, faulted
// (the injector's verdict is taken at acceptance) or randomly skewed
// (the draw comes from the link's own stream). The bound leaves room
// for the fixed per-run cost (one proc + goroutine) only — a
// closure-per-cell design would exceed it by two orders of magnitude.
func TestLinkSendDeliverSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  LinkConfig
	}{
		{"fault-free", LinkConfig{}},
		{"faulted", LinkConfig{Fault: &fault.Config{
			Loss:        fault.Bernoulli{P: 0.05},
			CorruptProb: 0.05,
			DupProb:     0.05,
		}}},
		{"skewed", LinkConfig{Skew: QueueingSkew{Max: 5 * time.Microsecond}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			defer e.Shutdown()
			tc.cfg.PropDelay = time.Microsecond
			l := NewLink(e, tc.cfg)
			delivered := 0
			l.SetReceiver(func(Cell, int) { delivered++ })

			const warm, cells = 200, 2000
			measureLinkRun(e, l, warm) // warm the event pool and train ring
			allocs := measureLinkRun(e, l, cells)
			if st := l.Stats(); int64(delivered) != st.Delivered || st.Sent != warm+cells ||
				st.Sent+st.Duplicated != st.Delivered+st.Lost {
				t.Fatalf("receiver saw %d cells, link stats %+v over %d sent", delivered, st, warm+cells)
			}
			if allocs > 64 {
				t.Errorf("sending %d cells allocated %d objects, want ≤ 64", cells, allocs)
			}
		})
	}
}

func BenchmarkLinkSendDeliver(b *testing.B) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	l := NewLink(e, LinkConfig{PropDelay: time.Microsecond})
	n := 0
	l.SetReceiver(func(Cell, int) { n++ })
	b.ReportAllocs()
	e.Go("tx", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			l.Send(p, Cell{Seq: uint32(i), Len: CellPayload})
		}
	})
	e.Run()
}
