package board

import (
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/dpm"
	"repro/internal/hostsim"
	"repro/internal/queue"
	"repro/internal/sim"
)

// BenchmarkTxScan measures the transmit processor's scan as
// tenants_churn drives it: all sixteen transmit channels open, the
// kernel channel busy and the fifteen others idle, so every cell's
// scan polls fifteen idle rings. It reports ns per transmitted cell.
func BenchmarkTxScan(b *testing.B) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	h := hostsim.New(e, hostsim.DEC3000_600(), 2048)
	bd := New(e, h, Config{})
	defer bd.Release()
	defer h.Release()
	var cells int
	bd.SetTxSink(func(atm.Cell, int) { cells++ })
	for i := 1; i < NumChannels; i++ {
		bd.OpenChannel(i, 0, nil)
	}
	ch := bd.KernelChannel()
	frames, err := h.Mem.AllocContiguous(1)
	if err != nil {
		b.Fatal(err)
	}
	d := queue.Desc{Addr: h.Mem.FrameAddr(frames[0]), Len: 4096, VCI: 5, Flags: queue.FlagEOP}
	e.Go("txhost", func(p *sim.Proc) {
		for {
			for !ch.TxRing.TryPush(p, dpm.Host, d) {
				p.Sleep(5 * time.Microsecond)
			}
			bd.KickTx()
		}
	})
	e.RunUntil(e.Now().Add(100 * time.Microsecond)) // fill the ring
	b.ResetTimer()
	for start := cells; cells-start < b.N; {
		e.RunUntil(e.Now().Add(100 * time.Microsecond))
	}
}
