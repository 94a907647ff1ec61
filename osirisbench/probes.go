package main

import (
	"runtime"
	"time"

	"repro/internal/adc"
	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/dpm"
	"repro/internal/driver"
	"repro/internal/fbuf"
	"repro/internal/hostsim"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/workload"
)

// probe times calls into one module's exported API. build does the
// untimed set-up and returns the timed body, which reports how many
// operations it performed, and the untimed teardown.
type probe struct {
	name  string  // per-layer metric name; allocations go under name+".allocs"
	unit  string  // unit of the time per operation
	scale float64 // nanoseconds per unit
	build func() (body func() int64, teardown func())
}

// probeReps is how many times each probe runs; the median is reported.
const probeReps = 3

// run measures p probeReps times and returns the median time per
// operation (in p.unit) and the median heap allocations per operation.
func (p probe) run(tr *tracer) (perOp, allocsPerOp float64) {
	var times, allocs []float64
	tr.do(p.name, func() {
		for i := 0; i < probeReps; i++ {
			body, teardown := p.build()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			ops := body()
			d := time.Since(start)
			runtime.ReadMemStats(&after)
			teardown()
			ops = max(ops, 1)
			times = append(times, float64(d.Nanoseconds())/float64(ops)/p.scale)
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(ops))
		}
	})
	return median(times), median(allocs)
}

func nop() {}

// depthInterval is the simulated interval at which a depthSampler reads
// the event queue.
const depthInterval = 10 * time.Microsecond

// depthSampler measures the pending-event depth at which the engines it
// is attached to fire their events: every depthInterval of simulated
// time it reads Engine.Pending, for as long as the engine has other
// events queued, and weights the reading by the events fired since the
// last one. Its own events perturb the simulation, so it runs only in a
// pass whose outputs are discarded. A nil *depthSampler does nothing.
type depthSampler struct {
	weighted, events float64
}

func (d *depthSampler) attach(e *sim.Engine) {
	if d == nil {
		return
	}
	last := e.Events()
	var tick func(any)
	tick = func(any) {
		pending := e.Pending()
		if pending == 0 {
			return
		}
		fired := float64(e.Events() - last - 1) // not counting this tick
		last = e.Events()
		d.weighted += fired * float64(pending)
		d.events += fired
		e.AtCall(e.Now().Add(depthInterval), tick, nil)
	}
	e.AtCall(e.Now(), tick, nil)
}

// mean returns the event-weighted mean depth, or 0 if no event was
// sampled.
func (d *depthSampler) mean() float64 { return ratio(d.weighted, d.events) }

// tenantsEventDepth stands in for the measured depth on tenants_churn,
// whose engine core.RunTenants keeps to itself. It is a fixed figure,
// not a measurement from the benchmark's runs: a copy of RunTenants with
// the same sampler attached measured 60 over the steady 1024-tenant
// scenario (seed 1) and 7 over the 32-tenant hog scenario, and the
// larger scenario's figure is used.
const tenantsEventDepth = 60

// probes returns the layer probes, each at the message size, tenant
// count or fan-in shape of the workload it serves; sim.event_ns runs at
// the given pending-event depth.
func probes(eventDepth int) []probe {
	payload16k := workload.Payload(16384, 1)
	// Several sim-based probes run until the model goes idle; a horizon
	// bounds the ones whose components keep periodic timers.
	const horizon = 2 * time.Second
	return []probe{
		{"sim.event_ns", "ns", 1, func() (func() int64, func()) {
			e := sim.NewEngine(1)
			noop := func(any) {}
			for i := 0; i < eventDepth; i++ {
				e.AtCall(sim.Time(time.Hour)+sim.Time(i), noop, nil)
			}
			return func() int64 {
				ev0 := e.Events()
				for b := 0; b < 4000; b++ {
					base := e.Now()
					for k := 0; k < 64; k++ {
						e.AtCall(base.Add(time.Duration(1+(k*37)%64)), noop, nil)
					}
					e.RunUntil(base.Add(64))
				}
				return int64(e.Events() - ev0)
			}, e.Shutdown
		}},
		procSwitchProbe("sim.proc_switch_ns", 0),
		procSwitchProbe("sim.proc_switch_ns_1k", 1024),
		{"sim.proc_spawn_ns", "ns", 1, func() (func() int64, func()) {
			e := sim.NewEngine(1)
			return func() int64 {
				const n = 20000
				for i := 0; i < n; i++ {
					e.Go("spawn", func(*sim.Proc) {})
				}
				e.Run()
				return n
			}, e.Shutdown
		}},

		{"atm.link_ns_per_cell", "ns", 1, func() (func() int64, func()) {
			e := sim.NewEngine(1)
			g := atm.NewStripeGroup(e, atm.StripeWidth, atm.LinkConfig{})
			var got int64
			g.SetReceiver(func(atm.Cell, int) { got++ })
			cells := atm.Segment(100, payload16k, atm.StripeWidth, false)
			e.Go("tx", func(p *sim.Proc) {
				for r := 0; r < 200; r++ {
					for _, c := range cells {
						g.Send(p, c)
					}
				}
			})
			return func() int64 { e.Run(); return got }, e.Shutdown
		}},
		{"atm.switch_ns_per_cell", "ns", 1, func() (func() int64, func()) {
			// The fabric_incast shape: eight ingress ports into one egress.
			e := sim.NewEngine(1)
			sw := atm.NewSwitch(e, 9, atm.SwitchConfig{Width: atm.StripeWidth})
			sw.Port(0).Egress().SetReceiver(func(atm.Cell, int) {})
			for i := 1; i <= 8; i++ {
				v := atm.VCI(200 + i)
				if err := sw.Route(v, 0); err != nil {
					panic(err)
				}
				cells := atm.Segment(v, payload16k, atm.StripeWidth, false)
				in := sw.Port(i).Ingress()
				e.Go("client", func(p *sim.Proc) {
					for r := 0; r < 25; r++ {
						for _, c := range cells {
							in.Send(p, c)
						}
					}
				})
			}
			return func() int64 { e.Run(); return sw.Stats().In }, e.Shutdown
		}},
		{"atm.segment_ns_per_cell", "ns", 1, func() (func() int64, func()) {
			return func() int64 {
				var n int64
				for i := 0; i < 2000; i++ {
					n += int64(len(atm.Segment(100, payload16k, atm.StripeWidth, false)))
				}
				return n
			}, nop
		}},

		{"board.rx_ns_per_cell", "ns", 1, func() (func() int64, func()) {
			// UDP/IP fragments of 16 KB messages into a double-cell board
			// and its driver, at the striped channel's cell rate.
			e := sim.NewEngine(1)
			h := hostsim.New(e, hostsim.DEC3000_600(), 4096)
			bd := board.New(e, h, board.Config{RxDMA: board.DoubleCell})
			d := driver.New(e, h, bd, driver.Config{Cache: driver.CacheNone})
			d.OpenPath(100, func(*sim.Proc, *msg.Message) {})
			var cells []atm.Cell
			for k := 0; k < 48; k++ {
				for _, f := range proto.BuildUDPFragments(payload16k, 1, 2, 1, 2, 16384, false, uint32(k)) {
					cells = append(cells, atm.Segment(100, f, atm.StripeWidth, false)...)
				}
			}
			e.Go("inject", func(p *sim.Proc) {
				for i, c := range cells {
					for !bd.InjectCell(c, i%atm.StripeWidth) {
						p.Sleep(2 * time.Microsecond)
					}
					p.Sleep(board.DefaultFictInterval)
				}
			})
			return func() int64 { e.RunUntil(e.Now().Add(horizon)); return int64(len(cells)) }, e.Shutdown
		}},
		txProbe("board.tx_ns_per_cell", 16384, 48, func(_ *driver.Driver, sink int64) int64 { return sink }),
		{"board.vci_lookup_ns", "ns", 1, func() (func() int64, func()) {
			// The tenants_churn demux: 1024 VCIs bound.
			var tab board.VCITable
			ch := &board.Channel{Index: 3}
			vcis := make([]atm.VCI, 1024)
			for i := range vcis {
				vcis[i] = atm.VCI(100 + i)
				tab.Bind(vcis[i], ch)
			}
			return func() int64 {
				var hit int64
				for r := 0; r < 2000; r++ {
					for _, v := range vcis {
						if tab.Lookup(v) != nil {
							hit++
						}
					}
				}
				return hit
			}, nop
		}},

		{"dpm.read_word_ns", "ns", 1, func() (func() int64, func()) {
			e := sim.NewEngine(1)
			dm := dpm.New(e, bus.New(e, bus.Config{}))
			const n = 100000
			e.Go("reader", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					dm.ReadWord(p, dpm.Host, uint32(4*(i%256)))
				}
			})
			return func() int64 { e.Run(); return n }, e.Shutdown
		}},
		{"queue.ring_push_pop_ns", "ns", 1, func() (func() int64, func()) {
			e := sim.NewEngine(1)
			r := queue.NewRing(dpm.New(e, bus.New(e, bus.Config{})), 0, 16)
			const n = 30000
			e.Go("ring", func(p *sim.Proc) {
				r.Init(p, dpm.Host)
				for i := 0; i < n; i++ {
					r.TryPush(p, dpm.Host, queue.Desc{Len: 1})
					r.TryPop(p, dpm.Board)
				}
			})
			return func() int64 { e.Run(); return n }, e.Shutdown
		}},

		{"mem.new_ms", "ms", 1e6, func() (func() int64, func()) {
			var keep []*mem.Memory
			return func() int64 {
				for i := 0; i < 4; i++ {
					keep = append(keep, mem.New(mem.Config{Pages: 4096}))
				}
				return int64(len(keep))
			}, func() { keep = nil }
		}},
		{"hostsim.cpu_read_ns_per_kb", "ns/KB", 1, func() (func() int64, func()) {
			e := sim.NewEngine(1)
			h := hostsim.New(e, hostsim.DEC5000_200(), 4096)
			va, err := h.Kernel.Alloc(16384)
			if err != nil {
				panic(err)
			}
			segs, err := h.Kernel.PhysSegments(va, 16384)
			if err != nil {
				panic(err)
			}
			const n = 400
			e.Go("reader", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					h.CPUReadData(p, segs)
				}
			})
			return func() int64 { e.Run(); return n * 16 }, e.Shutdown
		}},

		txProbe("driver.send_ns_per_pdu", 1024, 512, func(d *driver.Driver, _ int64) int64 { return d.Stats().TxPDUs }),

		{"proto.build_udp_ns_per_kb", "ns/KB", 1, func() (func() int64, func()) {
			payload := workload.Payload(figSize, 2)
			return func() int64 {
				const n = 300
				for i := 0; i < n; i++ {
					proto.BuildUDPFragments(payload, 1, 2, 1, 2, 16384, false, uint32(i))
				}
				return n * figSize / 1024
			}, nop
		}},

		{"fbuf.alloc_transfer_ns", "ns", 1, func() (func() int64, func()) {
			e := sim.NewEngine(1)
			h := hostsim.New(e, hostsim.DEC5000_200(), 4096)
			m := fbuf.NewManager(h, 0)
			a, b := fbuf.NewDomain(h, "a"), fbuf.NewDomain(h, "b")
			e.Go("define", func(p *sim.Proc) {
				if err := m.DefinePath(p, 7, []*fbuf.Domain{a, b}, 4, 16384); err != nil {
					panic(err)
				}
			})
			e.Run()
			var done int64
			e.Go("cached", func(p *sim.Proc) {
				for i := 0; i < 20000; i++ {
					f, err := m.Alloc(p, 7, a, 16384)
					if err != nil {
						panic(err)
					}
					if err := f.Transfer(p, a, b); err != nil {
						panic(err)
					}
					m.Free(f)
					done++
				}
			})
			return func() int64 { e.Run(); return done }, e.Shutdown
		}},

		{"adc.open_us", "us", 1e3, func() (func() int64, func()) {
			// The tenants_churn scale: 1024 virtual ADCs on one board.
			const tenants = 1024
			e := sim.NewEngine(1)
			h := hostsim.New(e, hostsim.DEC5000_200(), 2048+6*tenants)
			bd := board.New(e, h, board.Config{})
			mgr := adc.NewManager(h, bd)
			app := adc.NewAppDomain(h, "app")
			cfg := adc.Config{Virtual: true, BufBytes: 4096, BufCount: 16, ExtraPages: 4}
			var opened int64
			e.Go("opener", func(p *sim.Proc) {
				for i := 0; i < tenants; i++ {
					if _, err := mgr.Open(p, app, []atm.VCI{atm.VCI(100 + i)}, cfg); err != nil {
						panic(err)
					}
					opened++
				}
			})
			return func() int64 { e.RunUntil(e.Now().Add(10 * horizon)); return opened }, e.Shutdown
		}},

		{"core.testbed_build_ms", "ms", 1e6, func() (func() int64, func()) {
			var tbs []*core.Testbed
			build := func() int64 {
				for i := 0; i < 3; i++ {
					tbs = append(tbs, core.NewTestbed(core.Options{}))
				}
				return int64(len(tbs))
			}
			teardown := func() {
				for _, tb := range tbs {
					discard(tb.Eng)
				}
			}
			return build, teardown
		}},
		{"core.cluster9_build_ms", "ms", 1e6, func() (func() int64, func()) {
			var cl *core.Cluster
			return func() int64 { cl = core.NewCluster(core.Options{}, 9); return 1 }, func() { discard(cl.Eng) }
		}},
	}
}

// procSwitchProbe times two procs alternating Sleep, each Sleep one
// switch out of a proc and back, with parked extra procs waiting on a
// condition that is never signalled.
func procSwitchProbe(name string, parked int) probe {
	return probe{name, "ns", 1, func() (func() int64, func()) {
		e := sim.NewEngine(1)
		never := sim.NewCond(e)
		for i := 0; i < parked; i++ {
			e.Go("parked", func(p *sim.Proc) { never.Wait(p) })
		}
		e.Run()
		const n = 20000
		for j := 0; j < 2; j++ {
			e.Go("switch", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Sleep(time.Nanosecond)
				}
			})
		}
		return func() int64 { e.Run(); return 2 * n }, e.Shutdown
	}}
}

// txProbe times driver.Send of count messages of size bytes into a
// board whose cells go to a counting sink; ops picks what the time is
// divided by.
func txProbe(name string, size, count int, ops func(d *driver.Driver, sink int64) int64) probe {
	return probe{name, "ns", 1, func() (func() int64, func()) {
		e := sim.NewEngine(1)
		h := hostsim.New(e, hostsim.DEC3000_600(), 4096)
		bd := board.New(e, h, board.Config{})
		d := driver.New(e, h, bd, driver.Config{Cache: driver.CacheNone})
		var sink int64
		bd.SetTxSink(func(atm.Cell, int) { sink++ })
		pt := d.OpenPath(10, nil)
		payload := workload.Payload(size, 3)
		msgs := make([]*msg.Message, count)
		for i := range msgs {
			m, err := msg.FromBytes(h.Kernel, payload)
			if err != nil {
				panic(err)
			}
			msgs[i] = m
		}
		e.Go("send", func(p *sim.Proc) {
			for _, m := range msgs {
				if err := d.Send(p, pt, m, nil); err != nil {
					panic(err)
				}
			}
			d.Flush(p)
		})
		return func() int64 { e.RunUntil(e.Now().Add(2 * time.Second)); return ops(d, sink) }, e.Shutdown
	}}
}
