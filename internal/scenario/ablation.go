package scenario

import (
	"fmt"
	"time"

	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/dpm"
	"repro/internal/driver"
	"repro/internal/fbuf"
	"repro/internal/hostsim"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ringTime measures §2.1.1's queue-discipline ablation: one push/pop
// pair over a lock-free or a spin-lock host/board ring.
func ringTime(spin bool) time.Duration {
	e := sim.NewEngine(1)
	d := dpm.New(e, bus.New(e, bus.Config{}))
	const ops = 400
	var push func(p *sim.Proc) bool
	var pop func(p *sim.Proc) bool
	if spin {
		r := queue.NewSpinRing(d, dpm.SendLock, 0, 16)
		push = func(p *sim.Proc) bool { return r.TryPush(p, dpm.Host, queue.Desc{}) }
		pop = func(p *sim.Proc) bool { _, ok := r.TryPop(p, dpm.Board); return ok }
	} else {
		r := queue.NewRing(d, 0, 16)
		push = func(p *sim.Proc) bool { return r.TryPush(p, dpm.Host, queue.Desc{}) }
		pop = func(p *sim.Proc) bool { _, ok := r.TryPop(p, dpm.Board); return ok }
	}
	done := 0
	e.Go("host", func(p *sim.Proc) {
		for i := 0; i < ops; {
			if push(p) {
				i++
			} else {
				p.Sleep(200 * time.Nanosecond)
			}
		}
	})
	e.Go("board", func(p *sim.Proc) {
		for done < ops {
			if pop(p) {
				done++
			} else {
				p.Sleep(200 * time.Nanosecond)
			}
		}
	})
	end := e.Run()
	e.Shutdown()
	return time.Duration(end) / ops
}

// inval measures §2.3's cache-invalidation ablation: a 16 KB receive on
// the DECstation under the given policy.
func inval(cfg Config, policy driver.CachePolicy) float64 {
	opt := cfg.options(dsOptions())
	opt.Driver = driver.Config{Cache: policy}
	tb := core.NewTestbed(opt)
	defer tb.Shutdown()
	mbps, err := tb.RunReceiveThroughput(16384, 8)
	if err != nil {
		return 0
	}
	return mbps
}

// wire measures §2.4's page-wiring ablation.
func wire(slow bool) time.Duration {
	e := sim.NewEngine(1)
	h := hostsim.New(e, hostsim.DEC5000_200(), 1024)
	var cost time.Duration
	e.Go("w", func(p *sim.Proc) {
		start := p.Now()
		h.WirePages(p, 4, slow)
		cost = time.Duration(p.Now() - start)
	})
	e.Run()
	e.Shutdown()
	return cost
}

// strat measures §2.6: delivery correctness under link skew for one
// reassembly strategy.
func strat(cfg Config, s board.ReassemblyStrategy) string {
	skew := atm.ConstantSkew{PerLink: []time.Duration{0, 9 * time.Microsecond, 3 * time.Microsecond, 14 * time.Microsecond}}
	opt := cfg.options(alOptions())
	opt.Board = board.Config{Strategy: s}
	opt.Link.Skew = skew
	tb := core.NewTestbed(opt)
	defer tb.Shutdown()
	tx, err := tb.A.Raw.Open(proto.RawOpen{VCI: 61})
	if err != nil {
		return "error"
	}
	rx, err := tb.B.Raw.Open(proto.RawOpen{VCI: 61})
	if err != nil {
		return "error"
	}
	data := workload.Payload(8000, 5)
	verdict := "loses"
	rx.SetHandler(func(p *sim.Proc, m *msg.Message) {
		b, _ := m.Bytes()
		if string(b) == string(data) {
			verdict = "correct"
		} else {
			verdict = "CORRUPTS"
		}
	})
	tb.Go(0, "s", func(p *sim.Proc) {
		m, _ := msg.FromBytes(tb.A.Host.Kernel, data)
		tx.Push(p, m)
		tb.A.Drv.Flush(p)
	})
	tb.RunUntil(tb.Now().Add(50 * time.Millisecond))
	return verdict
}

// fb measures §3.1's fbuf transfer cost, cached vs uncached path.
func fb(cached bool) time.Duration {
	e := sim.NewEngine(1)
	h := hostsim.New(e, hostsim.DEC5000_200(), 2048)
	m := fbuf.NewManager(h, 0)
	a := fbuf.NewDomain(h, "a")
	bdom := fbuf.NewDomain(h, "b")
	var cost time.Duration
	e.Go("x", func(p *sim.Proc) {
		var f *fbuf.Fbuf
		var err error
		if cached {
			if err = m.DefinePath(p, 7, []*fbuf.Domain{a, bdom}, 1, 16384); err != nil {
				return
			}
			f, err = m.Alloc(p, 7, a, 16384)
		} else {
			f, err = m.AllocUncached(p, a, 16384)
		}
		if err != nil {
			return
		}
		start := p.Now()
		f.Transfer(p, a, bdom)
		cost = time.Duration(p.Now() - start)
	})
	e.Run()
	e.Shutdown()
	return cost
}

// lossy measures the §2.3 premise: RDP delivery over a 1%-lossy link.
// LossRate draws from the shared engine RNG per cell, which is
// partition-dependent, so this ablation always runs on the serial
// engine regardless of Config.Shards.
func lossy(cfg Config) string {
	opt := cfg.options(alOptions())
	opt.Link.LossRate = 0.01
	opt.Shards = 0
	tb := core.NewTestbed(opt)
	defer tb.Shutdown()
	tx, err := tb.A.RDP.Open(proto.RDPOpen{Remote: 2, VCI: 60, Window: 4})
	if err != nil {
		return "error"
	}
	rxs, err := tb.B.RDP.Open(proto.RDPOpen{Remote: 1, VCI: 60, Window: 4})
	if err != nil {
		return "error"
	}
	got := 0
	rxs.SetHandler(func(p *sim.Proc, m *msg.Message) { got++ })
	tb.Go(0, "s", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			mm, _ := msg.FromBytes(tb.A.Host.Kernel, workload.Payload(3000, byte(i)))
			tx.Push(p, mm)
		}
	})
	tb.RunUntil(tb.Now().Add(time.Second))
	return fmt.Sprintf("%d/10 delivered, %d retransmits", got, tb.A.RDP.Stats().Retransmits)
}
