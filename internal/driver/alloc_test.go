package driver

import (
	"testing"

	"repro/internal/board"
	"repro/internal/hostsim"
	"repro/internal/msg"
	"repro/internal/queue"
	"repro/internal/sim"
)

// TestDeliveryAllocatesNothing: once warm, handing a received two-buffer
// PDU up its path — the message over the driver's scratch, the cache
// policy, the handler, the buffers' return — allocates nothing. That
// holds for a handler that only reads its message and for one that
// retains each message and releases it during the next delivery, the way
// IP holds fragments for reassembly.
func TestDeliveryAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		name   string
		prof   func() hostsim.Profile
		cache  CachePolicy
		retain bool
	}{
		{"read", hostsim.DEC3000_600, CacheNone, false},
		{"read/eager", hostsim.DEC5000_200, CacheEager, false},
		{"retain", hostsim.DEC3000_600, CacheNone, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			h := hostsim.New(e, c.prof(), 4096)
			d := New(e, h, board.New(e, h, board.Config{}), Config{Cache: c.cache})
			defer h.Release()
			defer e.Shutdown()
			var held *msg.Message
			delivered := 0
			d.OpenPath(10, func(p *sim.Proc, m *msg.Message) {
				delivered += m.Len()
				if !c.retain {
					return
				}
				if held != nil {
					d.Release(p, held)
				}
				d.Retain(m)
				held = m
			})
			e.Run() // the init proc fills the rings and the reserve
			kick := sim.NewChan[struct{}](e, 1)
			var descs []queue.Desc
			e.Go("rx", func(p *sim.Proc) {
				for {
					kick.Recv(p)
					// Two buffers off the reserve, as the receive thread's
					// refill leaves them to the board, back as one PDU.
					if len(d.reserve) < 2 {
						t.Errorf("reserve down to %d buffers: deliveries leak them", len(d.reserve))
						continue
					}
					descs = descs[:0]
					for i := 0; i < 2; i++ {
						rb := d.reserve[len(d.reserve)-1]
						d.reserve = d.reserve[:len(d.reserve)-1]
						descs = append(descs, queue.Desc{Addr: rb.pa, Len: 1000, VCI: 10})
					}
					descs[1].Flags = queue.FlagEOP
					d.deliverPDU(p, descs)
				}
			})
			run := func() {
				kick.TrySend(struct{}{})
				e.Run()
			}
			run() // warm-up: scratch, spare message and buffer list
			run()
			if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
				t.Errorf("%v allocations per delivery, want 0", allocs)
			}
			if want := 2000 * 103; delivered != want {
				t.Errorf("delivered %d bytes, want %d", delivered, want)
			}
		})
	}
}
