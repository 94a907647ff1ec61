package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/bus"
	"repro/internal/dpm"
	"repro/internal/proto"
	"repro/internal/sim"
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

// haltAt runs run, ending the engine's Run d from now by panicking out
// of an event there and recovering here: Run unwinds with the rest of
// its queue intact.
func haltAt(e *sim.Engine, d time.Duration, run func()) {
	type halt struct{}
	e.At(e.Now().Add(d), func() { panic(halt{}) })
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(halt); !ok {
				panic(r)
			}
		}
	}()
	run()
}

// TestBoardEnginesInertAfterShutdown: procs die at Shutdown, but the
// board's processors, DMA controllers and fictitious-PDU generator are
// event continuations whose wakeups stay queued. A testbed stopped
// mid-transfer and torn down — which also releases every host's memory
// and board's dual-port memory — must let a later RunUntil fire those
// events without a panic and without moving any board, bus or
// dual-port memory counter.
func TestBoardEnginesInertAfterShutdown(t *testing.T) {
	runs := map[string]func() *Testbed{
		// The generator feeding B's receive path, unpaced.
		"receive": func() *Testbed {
			tb := NewTestbed(alOptions())
			if _, err := tb.B.Raw.Open(proto.RawOpen{VCI: 61}); err != nil {
				t.Fatal(err)
			}
			pdu := make([]byte, 8192)
			tb.B.Board.StartFictitious(61, 4, func(int) [][]byte { return [][]byte{pdu} }, -1, 0)
			tb.Eng.RunUntil(tb.Eng.Now().Add(150 * time.Microsecond))
			return tb
		},
		// UDP round trips over the links: both transmit paths.
		"latency": func() *Testbed {
			tb := NewTestbed(alOptions())
			haltAt(tb.Eng, 150*time.Microsecond, func() { tb.RunLatency(UDPIP, 4096, 50) })
			return tb
		},
		// Messages queued back to back on A's transmit ring, its cells
		// absorbed by a sink: the transmit processor has PDUs left to
		// gather from the (released) dual-port memory.
		"transmit": func() *Testbed {
			opt := alOptions()
			opt.TxIsolated = true
			tb := NewTestbed(opt)
			haltAt(tb.Eng, 100*time.Microsecond, func() { tb.RunTransmitThroughput(16384, 4) })
			return tb
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			tb := run()
			type counters struct {
				board [2]board.Stats
				bus   [2]bus.Stats
				dpm   [2]dpm.Stats
			}
			snap := func() (c counters) {
				for i, n := range []*Node{tb.A, tb.B} {
					c.board[i], c.bus[i], c.dpm[i] = n.Board.Stats(), n.Host.Bus.Stats(), n.Board.DPM.Stats()
				}
				return c
			}
			if s := snap(); s.bus[0].DMAReadTxns+s.bus[1].DMAWriteTxns == 0 {
				t.Fatalf("stopped before any transfer: %+v", s)
			}
			tb.Shutdown()
			if tb.Eng.Pending() == 0 {
				t.Fatal("nothing left queued: the transfer was not stopped mid-way")
			}
			before, pending, events := snap(), tb.Eng.Pending(), tb.Eng.Events()
			tb.Eng.RunUntil(tb.Eng.Now().Add(time.Millisecond))
			if after := snap(); after != before {
				t.Fatalf("counters moved after Shutdown:\nbefore %+v\nafter  %+v", before, after)
			}
			if fired := tb.Eng.Events() - events; fired+uint64(tb.Eng.Pending()) != uint64(pending) {
				t.Fatalf("the %d events queued at Shutdown fired %d and left %d: something went on scheduling", pending, fired, tb.Eng.Pending())
			}
		})
	}
}

// TestDriverSetupInertAfterShutdown: the drivers' buffer set-up is an
// event continuation too. A testbed torn down part-way through it must
// let a later RunUntil fire the set-up's queued events without a panic
// and without carving, wiring or queueing another buffer.
func TestDriverSetupInertAfterShutdown(t *testing.T) {
	tb := NewTestbed(alOptions())
	tb.Eng.RunUntil(tb.Eng.Now().Add(50 * time.Microsecond))
	type counters struct {
		bus   [2]bus.Stats
		dpm   [2]dpm.Stats
		pages [2]int
	}
	snap := func() (c counters) {
		for i, n := range []*Node{tb.A, tb.B} {
			c.bus[i], c.dpm[i], c.pages[i] = n.Host.Bus.Stats(), n.Board.DPM.Stats(), n.Host.Mem.FreePages()
		}
		return c
	}
	if s := snap(); s.dpm[0].HostWrites == 0 {
		t.Fatalf("stopped before the set-up wrote a ring: %+v", s)
	}
	tb.Shutdown()
	if tb.Eng.Pending() == 0 {
		t.Fatal("nothing left queued: the set-up was not stopped mid-way")
	}
	before, pending, events := snap(), tb.Eng.Pending(), tb.Eng.Events()
	tb.Eng.RunUntil(tb.Eng.Now().Add(10 * time.Millisecond))
	if after := snap(); after != before {
		t.Fatalf("counters moved after Shutdown:\nbefore %+v\nafter  %+v", before, after)
	}
	if fired := tb.Eng.Events() - events; fired+uint64(tb.Eng.Pending()) != uint64(pending) {
		t.Fatalf("the %d events queued at Shutdown fired %d and left %d: something went on scheduling", pending, fired, tb.Eng.Pending())
	}
}
