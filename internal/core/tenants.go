package core

import (
	"fmt"
	"time"

	"repro/internal/adc"
	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/dpm"
	"repro/internal/fbuf"
	"repro/internal/hostsim"
	"repro/internal/msg"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Tenants configures the multi-tenant ADC scale-out experiment: many
// virtual ADCs (far past the adaptor's 15 queue-page pairs) carry
// concurrent per-tenant traffic between two hosts, with connection
// churn exercising the demux table and the receive host's fbuf path
// cache, and optionally one deliberately misbehaving tenant testing the
// board's fairness mechanisms.
type Tenants struct {
	// Tenants is the number of steady virtual ADC pairs (default 8).
	Tenants int
	// PDUs is how many PDUs each steady tenant sends (default 4).
	PDUs int
	// PDUBytes is the payload per PDU (default 2048; at most one
	// four-page transmit run).
	PDUBytes int
	// Churn adds that many ephemeral tenant cycles, each an open → send
	// one PDU → close sequence on a fresh VCI, running concurrently with
	// the steady tenants (default 0).
	Churn int
	// FbufPaths is the receive host's cached-path budget (default
	// fbuf.DefaultMaxCachedPaths); tenant counts past it force real
	// eviction churn.
	FbufPaths int
	// Misbehave adds a hog tenant on a dedicated channel: a full-blast
	// sender on host A paired with a receiver on host B that supplies
	// buffers but never reaps its receive ring. Unless overridden in
	// Options.Board, host A's arbiter gets a DRR quantum and host B's
	// board a per-channel FIFO quota and receive-ring drop grace — the
	// isolation mechanisms under test.
	Misbehave bool
	// Horizon bounds the run in simulated time (default: generous,
	// scaled to the total offered bytes plus the pacing schedule).
	Horizon time.Duration
}

// TenantsResult is the outcome of a tenants run. Every field is derived
// from simulated time and deterministic counters, so serialized results
// are byte-identical run to run for a given configuration.
type TenantsResult struct {
	Tenants  int `json:"tenants"`
	PDUs     int `json:"pdus_per_tenant"`
	PDUBytes int `json:"pdu_bytes"`
	// Sent/Delivered/Shortfall cover the steady tenants only (the hog
	// and churn cycles are accounted separately).
	Sent      int `json:"sent"`
	Delivered int `json:"delivered"`
	Shortfall int `json:"shortfall"`
	// MinDelivered is the worst steady tenant's delivery count;
	// Isolated reports whether every steady tenant delivered at least
	// 90% of its offered PDUs — the fairness bar.
	MinDelivered   int  `json:"min_delivered"`
	Isolated       bool `json:"isolated"`
	ChurnCycles    int  `json:"churn_cycles"`
	ChurnDelivered int  `json:"churn_delivered"`
	MuxChannels    int  `json:"mux_channels"`
	PeakBoundVCIs  int  `json:"peak_bound_vcis"`
	// PerPDUCost is the simulated first-to-last delivery window divided
	// by total deliveries: the per-PDU cost whose growth with tenant
	// count the sweep pins as sub-linear.
	PerPDUCost    time.Duration `json:"per_pdu_cost_ns"`
	Elapsed       time.Duration `json:"elapsed_ns"`
	GoodputMbps   float64       `json:"goodput_mbps"`
	FbufHits      int64         `json:"fbuf_hits"`
	FbufMisses    int64         `json:"fbuf_misses"`
	FbufEvictions int64         `json:"fbuf_evictions"`
	FbufDemotions int64         `json:"fbuf_demotions"`
	Violations    int64         `json:"violations"`
	Misbehave     bool          `json:"misbehave"`
	HogSent       int           `json:"hog_sent"`
	QuotaDropped  int64         `json:"quota_dropped"`
	RingDropped   int64         `json:"ring_dropped"`
}

const (
	tenantsBaseVCI = 100
	tenantsHogVCI  = 90
	churnBaseVCI   = 40000
	hogPDUBytes    = 2048
)

// RunTenants drives the multi-tenant workload between two hosts wired
// back to back. The experiment is serial by construction — one engine
// regardless of Options.Shards, since every tenant shares the two hosts
// and there is no cross-host lookahead to exploit — so its artifacts
// are byte-identical at any shard count; the scenario registry's
// shard-invariance test pins that the flag plumbing does not perturb
// them.
func RunTenants(opt Options, w Tenants) (*TenantsResult, error) {
	opt = opt.withDefaults()
	if w.Tenants <= 0 {
		w.Tenants = 8
	}
	if w.PDUs <= 0 {
		w.PDUs = 4
	}
	if w.PDUBytes <= 0 {
		w.PDUBytes = 2048
	}
	if w.FbufPaths == 0 {
		w.FbufPaths = fbuf.DefaultMaxCachedPaths
	}
	if w.Tenants > 8192 {
		return nil, fmt.Errorf("core: %d tenants exceed the experiment's VCI plan", w.Tenants)
	}
	if w.Churn > 20000 {
		return nil, fmt.Errorf("core: %d churn cycles exceed the experiment's VCI plan", w.Churn)
	}

	// Each tenant pins a four-page transmit run on each host, plus the
	// mux pools, the receive-side fbufs, and slack; grow physical memory
	// with the tenant count so scale, not memory exhaustion, is measured.
	pages := max(hostMemPages, 2048+6*w.Tenants)

	// Pace the steady senders so their aggregate offered load stays
	// below the receive path's service rate (~200 Mbps in total): the
	// experiment measures multiplexing cost and isolation, not loss on
	// an overdriven open-loop path.
	cycle := time.Duration(w.PDUBytes*w.Tenants) * 40 * time.Nanosecond
	if cycle < 50*time.Microsecond {
		cycle = 50 * time.Microsecond
	}
	hogPDUs := 0
	if w.Misbehave {
		if hogPDUs = 4 * w.Tenants * w.PDUs; hogPDUs < 256 {
			hogPDUs = 256
		}
	}
	if w.Horizon == 0 {
		bytes := (w.Tenants*w.PDUs+w.Churn)*w.PDUBytes + hogPDUs*hogPDUBytes
		// The per-tenant term covers connection setup: opens are kernel
		// work (queue mappings, page wiring) charged serially, so the
		// start of the last tenant scales with the tenant count.
		w.Horizon = 50*time.Millisecond +
			time.Duration(w.Tenants+w.Churn)*2*time.Millisecond +
			time.Duration(w.PDUs)*cycle +
			time.Duration(bytes)*100*time.Nanosecond
	}

	e := sim.NewEngine(opt.Seed)
	hA := hostsim.New(e, opt.Profile, pages)
	hB := hostsim.New(e, opt.Profile, pages)
	if w.PDUBytes > 4*hA.Mem.PageSize() {
		return nil, fmt.Errorf("core: tenant PDU of %d bytes exceeds one transmit run", w.PDUBytes)
	}
	cfgA, cfgB := opt.Board, opt.Board
	cfgA.Name, cfgB.Name = "tenantsA", "tenantsB"
	if w.Misbehave {
		if cfgA.TxDRRQuantum == 0 {
			cfgA.TxDRRQuantum = 4 * atm.CellPayload
		}
		// The quota must sit well below the FIFO depth or overflow drops
		// act first and the quota never attributes anything.
		if cfgB.RxFIFOCells == 0 {
			cfgB.RxFIFOCells = 512
		}
		if cfgB.RxFIFOQuota == 0 {
			cfgB.RxFIFOQuota = 64
		}
		if cfgB.RecvDropGrace == 0 {
			cfgB.RecvDropGrace = 4 * time.Microsecond
		}
		// Quota and grace drops abort PDUs mid-stream on the hog's VCI;
		// reassembly must resynchronize exactly as under incast overload.
		cfgB.ReasmResync = true
	}
	bA := board.New(e, hA, cfgA)
	bB := board.New(e, hB, cfgB)
	ab := atm.NewStripeGroup(e, atm.StripeWidth, opt.Link)
	ba := atm.NewStripeGroup(e, atm.StripeWidth, opt.Link)
	bA.AttachTxLinks(ab.Links())
	bB.AttachRxLinks(ab)
	bB.AttachTxLinks(ba.Links())
	bA.AttachRxLinks(ba)
	mgA := adc.NewManager(hA, bA)
	mgB := adc.NewManager(hB, bB)
	fbm := fbuf.NewManager(hB, w.FbufPaths)
	drvDom := fbuf.NewDomain(hB, "tenants-drv")
	appDoms := []*fbuf.Domain{
		fbuf.NewDomain(hB, "tenants-app0"),
		fbuf.NewDomain(hB, "tenants-app1"),
		fbuf.NewDomain(hB, "tenants-app2"),
		fbuf.NewDomain(hB, "tenants-app3"),
	}
	if opt.Metrics != nil && opt.ADCMetrics {
		mgA.RegisterMetrics(opt.Metrics, "tenantsA/adc")
		mgB.RegisterMetrics(opt.Metrics, "tenantsB/adc")
		fbm.RegisterChurnMetrics(opt.Metrics, "tenantsB/fbuf")
	}

	appA := adc.NewAppDomain(hA, "tenantsA-app")
	appB := adc.NewAppDomain(hB, "tenantsB-app")
	tenantCfg := adc.Config{Virtual: true, BufBytes: 4096, BufCount: 16, ExtraPages: 4}

	sent := make([]int, w.Tenants)
	delivered := make([]int, w.Tenants)
	var deliveredTotal, churnSent, churnDelivered, churned, hogSent, peakBound int
	var firstT, lastT sim.Time
	var setupErr error
	fail := func(err error) {
		if setupErr == nil {
			setupErr = err
		}
	}
	// observe is the single delivery accounting point (serial engine:
	// handlers never race).
	observe := func(hp *sim.Proc) {
		if deliveredTotal == 0 {
			firstT = hp.Now()
		}
		deliveredTotal++
		lastT = hp.Now()
	}

	e.Go("tenants-setup", func(p *sim.Proc) {
		// The hog claims its dedicated channels first (channel 1 on both
		// boards), so the steady tenants' muxes spread over the rest.
		if w.Misbehave {
			hogApp := adc.NewAppDomain(hA, "hog")
			hog, err := mgA.Open(p, hogApp, []atm.VCI{tenantsHogVCI},
				adc.Config{BufBytes: 4096, BufCount: 2, ExtraPages: 4})
			if err != nil {
				fail(err)
				return
			}
			if err := mgB.Reserve(hog.Index); err != nil {
				fail(err)
				return
			}
			// Host B's side is a raw board channel that supplies free
			// buffers but never reaps its receive ring: the never-reaping
			// receiver of the fairness scenario.
			bB.OpenChannel(hog.Index, 0, nil)
			bB.BindVCI(tenantsHogVCI, hog.Index)
			chB := bB.Channel(hog.Index)
			// Supply more buffers than the receive ring has slots, so the
			// ring — which nobody ever reaps — is what fills, not the free
			// list: exactly the stall RecvDropGrace exists for.
			e.Go("hog-bufs", func(p *sim.Proc) {
				for i := 0; i < 96; i++ {
					run, err := hB.Mem.AllocContiguous(1)
					if err != nil {
						return
					}
					d := queue.Desc{Addr: hB.Mem.FrameAddr(run[0]), Len: uint32(hB.Mem.PageSize())}
					for !chB.FreeRing.TryPush(p, dpm.Host, d) {
						bB.KickFree()
						p.Sleep(5 * time.Microsecond)
					}
				}
				bB.KickFree()
			})
			e.Go("hog-tx", func(p *sim.Proc) {
				va, size, err := hog.TxBuffer(0)
				if err != nil || size < hogPDUBytes {
					return
				}
				payload := make([]byte, hogPDUBytes)
				for i := range payload {
					payload[i] = byte(tenantsHogVCI)
				}
				if err := hogApp.Space.WriteVirt(va, payload); err != nil {
					return
				}
				pt := hog.Driver().OpenPath(tenantsHogVCI, nil)
				for n := 0; n < hogPDUs; n++ {
					mm := msg.New(msg.Fragment{Space: hogApp.Space, VA: va, Len: hogPDUBytes})
					if err := hog.Driver().Send(p, pt, mm, nil); err != nil {
						return
					}
					hog.Driver().Flush(p)
					hogSent++
				}
			})
		}

		for i := 0; i < w.Tenants; i++ {
			i := i
			vci := atm.VCI(tenantsBaseVCI + i)
			a, err := mgA.Open(p, appA, []atm.VCI{vci}, tenantCfg)
			if err != nil {
				fail(err)
				return
			}
			b, err := mgB.Open(p, appB, []atm.VCI{vci}, tenantCfg)
			if err != nil {
				fail(err)
				return
			}
			if err := fbm.DefinePath(p, vci, []*fbuf.Domain{drvDom, appDoms[i%len(appDoms)]}, 2, w.PDUBytes); err != nil {
				fail(err)
				return
			}
			b.Driver().OpenPath(vci, func(hp *sim.Proc, m *msg.Message) {
				// Per-delivery buffer work rides the fbuf cache: a hit is
				// the cached-path fast case, a miss (path evicted under
				// churn) pays the uncached mapping cost.
				if fb, err := fbm.Alloc(hp, vci, drvDom, w.PDUBytes); err == nil {
					fbm.Free(fb)
				}
				data, err := m.Bytes()
				if err != nil || len(data) != w.PDUBytes || data[0] != byte(vci) {
					return
				}
				delivered[i]++
				observe(hp)
			})
			e.Go(fmt.Sprintf("tenant-%d", i), func(p *sim.Proc) {
				// Spread the first wave over one pacing cycle: a
				// synchronized burst of every tenant's first PDU would
				// measure FIFO overflow, not multiplexing cost.
				p.Sleep(time.Duration(i+1) * cycle / time.Duration(w.Tenants))
				va, size, err := a.TxBuffer(0)
				if err != nil || size < w.PDUBytes {
					return
				}
				payload := make([]byte, w.PDUBytes)
				for j := range payload {
					payload[j] = byte(vci)
				}
				if err := appA.Space.WriteVirt(va, payload); err != nil {
					return
				}
				pt := a.Driver().OpenPath(vci, nil)
				for n := 0; n < w.PDUs; n++ {
					mm := msg.New(msg.Fragment{Space: appA.Space, VA: va, Len: w.PDUBytes})
					if err := a.Driver().Send(p, pt, mm, nil); err != nil {
						return
					}
					a.Driver().Flush(p)
					sent[i]++
					if n < w.PDUs-1 {
						p.Sleep(cycle)
					}
				}
			})
		}
		peakBound = bB.BoundVCIs()

		if w.Churn > 0 {
			e.Go("tenant-churn", func(p *sim.Proc) {
				for j := 0; j < w.Churn; j++ {
					vci := atm.VCI(churnBaseVCI + j)
					a, err := mgA.Open(p, appA, []atm.VCI{vci}, tenantCfg)
					if err != nil {
						fail(err)
						return
					}
					b, err := mgB.Open(p, appB, []atm.VCI{vci}, tenantCfg)
					if err != nil {
						mgA.Close(a)
						fail(err)
						return
					}
					if err := fbm.DefinePath(p, vci, []*fbuf.Domain{drvDom, appDoms[j%len(appDoms)]}, 1, w.PDUBytes); err != nil {
						fail(err)
						return
					}
					got := false
					rpt := b.Driver().OpenPath(vci, func(hp *sim.Proc, m *msg.Message) {
						if fb, err := fbm.Alloc(hp, vci, drvDom, w.PDUBytes); err == nil {
							fbm.Free(fb)
						}
						if !got {
							got = true
							churnDelivered++
							observe(hp)
						}
					})
					spt := a.Driver().OpenPath(vci, nil)
					va, size, err := a.TxBuffer(0)
					if err != nil || size < w.PDUBytes {
						fail(fmt.Errorf("core: churn tx buffer: %v", err))
						return
					}
					sendDone := false
					mm := msg.New(msg.Fragment{Space: appA.Space, VA: va, Len: w.PDUBytes})
					if err := a.Driver().Send(p, spt, mm, func(*sim.Proc) { sendDone = true }); err != nil {
						fail(err)
						return
					}
					a.Driver().Flush(p)
					churnSent++
					// Wait for delivery with a bound (an overloaded run may
					// legitimately drop the PDU) — but never close while the
					// transmit DMA still owns the tenant's pages.
					deadline := p.Now().Add(5 * time.Millisecond)
					for (!sendDone || !got) && p.Now() < deadline {
						p.Sleep(20 * time.Microsecond)
					}
					for !sendDone {
						p.Sleep(20 * time.Microsecond)
					}
					a.Driver().ClosePath(spt)
					b.Driver().ClosePath(rpt)
					if fbm.PathDefined(vci) {
						if err := fbm.UndefinePath(p, vci); err != nil {
							fail(err)
							return
						}
					}
					mgB.Close(b)
					mgA.Close(a)
					churned++
				}
			})
		}
	})
	e.RunUntil(e.Now().Add(w.Horizon))
	e.Shutdown()
	if setupErr != nil {
		return nil, setupErr
	}

	res := &TenantsResult{
		Tenants:        w.Tenants,
		PDUs:           w.PDUs,
		PDUBytes:       w.PDUBytes,
		ChurnCycles:    churned,
		ChurnDelivered: churnDelivered,
		MuxChannels:    mgA.MuxChannels(),
		PeakBoundVCIs:  peakBound,
		Misbehave:      w.Misbehave,
		HogSent:        hogSent,
	}
	res.MinDelivered = w.PDUs
	for i := 0; i < w.Tenants; i++ {
		res.Sent += sent[i]
		res.Delivered += delivered[i]
		if delivered[i] < res.MinDelivered {
			res.MinDelivered = delivered[i]
		}
	}
	res.Shortfall = w.Tenants*w.PDUs - res.Delivered
	res.Isolated = res.MinDelivered*10 >= w.PDUs*9
	if deliveredTotal > 1 {
		res.Elapsed = time.Duration(lastT - firstT)
		res.PerPDUCost = res.Elapsed / time.Duration(deliveredTotal)
		res.GoodputMbps = stats.Mbps(int64(deliveredTotal)*int64(w.PDUBytes), res.Elapsed)
	}
	fs := fbm.Stats()
	res.FbufHits = fs.CachedAllocs
	// A miss is any allocation that fell through to the uncached pool:
	// the path was evicted (no pool at all) or its pool was empty.
	res.FbufMisses = fs.UncachedAllocs
	res.FbufEvictions = fs.PathEvictions
	res.FbufDemotions = fs.Demotions
	for i := 1; i < board.NumChannels; i++ {
		res.Violations += mgA.Violations(i) + mgB.Violations(i)
	}
	bs := bB.Stats()
	res.QuotaDropped = bs.CellsQuotaDropped
	res.RingDropped = bs.RecvRingDropped
	return res, nil
}
