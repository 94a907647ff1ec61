package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sizes fixes how much work one pass of each workload does.
type sizes struct {
	rttRounds  int // Table 1 round trips per point (after one warm-up)
	rxCount    int // Figures 2/3 messages per point (the first is warm-up)
	txCount    int // Figure 4 messages per point
	fanInMsgs  int // fabric_incast phase 1 messages per client
	incastMsgs int // fabric_incast phase 2 messages per client
	tenants    int // tenants_churn steady tenants
	churn      int // tenants_churn open/close cycles
	hogTenants int // innocents sharing the adaptor with the hog
}

// fullSizes is what the benchmark runs.
func fullSizes() sizes {
	return sizes{
		rttRounds: 5, rxCount: 12, txCount: 12,
		fanInMsgs: 32, incastMsgs: 16,
		tenants: 1024, churn: 32, hogTenants: 32,
	}
}

// tinySizes keeps every mechanism of fullSizes in play at a fraction of
// the cost, for the benchmark's own tests.
func tinySizes() sizes {
	return sizes{
		rttRounds: 1, rxCount: 3, txCount: 3,
		fanInMsgs: 2, incastMsgs: 2,
		tenants: 24, churn: 4, hogTenants: 8,
	}
}

// passResult is what one pass of a workload produced.
type passResult struct {
	// cells is the simulated ATM cells carried by verified deliveries,
	// fixed by the workload's inputs.
	cells int64
	// events is the engine events fired in the run phases, where the
	// workload's engines are visible to the benchmark.
	events uint64
	// goodput is the verified simulated goodput, Mbps.
	goodput   float64
	attempted int
	failed    int
	failures  []string
	// outputs holds every simulated result; its hash is the fingerprint.
	outputs []any
	// points holds the reference-point comparison (paper_testbed only).
	points []pointResult
}

// fail records n failed operations with the reason.
func (r *passResult) fail(n int, format string, args ...any) {
	r.failed += n
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

type pointResult struct {
	Name   string  `json:"name"`
	Paper  float64 `json:"paper"`
	Sim    float64 `json:"sim"`
	ErrPct float64 `json:"err_pct"`
}

// errMeans returns the mean error of the Table 1 points and of the
// figure points.
func errMeans(pts []pointResult) (table1, fig float64) {
	var nt, nf int
	for _, p := range pts {
		if strings.HasPrefix(p.Name, "table1/") {
			table1 += p.ErrPct
			nt++
		} else {
			fig += p.ErrPct
			nf++
		}
	}
	if nt > 0 {
		table1 /= float64(nt)
	}
	if nf > 0 {
		fig /= float64(nf)
	}
	return table1, fig
}

type workloadDef struct {
	name string
	pass func(sz sizes, seed int64, m *meter, l *layers) passResult
}

var workloads = []workloadDef{
	{"paper_testbed", paperPass},
	{"fabric_incast", fabricPass},
	{"tenants_churn", tenantsPass},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// telemetry returns a registry for a traced pass, nil otherwise.
func telemetry(l *layers) *metrics.Registry {
	if l == nil {
		return nil
	}
	return metrics.New()
}

// paperPass regenerates the paper's 25 published points on the
// back-to-back testbed: Table 1 as a closed ping-pong loop, Figures 2/3
// as an open loop at line rate from the fictitious-PDU generator, and
// Figure 4 into an isolated sink.
func paperPass(sz sizes, seed int64, m *meter, l *layers) passResult {
	var res passResult
	var mbpsSum float64
	var nFig int
	for _, pt := range paperPoints() {
		pt := pt
		opt := pt.opt
		opt.Seed = seed
		opt.Metrics = telemetry(l)
		res.attempted++
		m.tr.do(pt.name, func() {
			var tb *core.Testbed
			m.do(setupPhase, func() { tb = core.NewTestbed(opt) })
			m.depth.attach(tb.Eng)
			var v float64
			var err error
			ev0 := tb.Events()
			m.do(runPhase, func() {
				switch pt.kind {
				case rttPoint:
					var rtt time.Duration
					rtt, err = tb.RunLatency(pt.proto, pt.size, sz.rttRounds)
					v = rtt.Seconds() * 1e6
				case rxPoint:
					v, err = tb.RunReceiveThroughput(pt.size, sz.rxCount)
				case txPoint:
					v, err = tb.RunTransmitThroughput(pt.size, sz.txCount)
				}
			})
			m.do(checkPhase, func() {
				defer tb.Shutdown()
				res.events += tb.Events() - ev0
				if err != nil || !(v > 0) {
					res.fail(1, "%s: %v (value %g)", pt.name, err, v)
					return
				}
				if msg := checkTestbed(tb, pt, sz); msg != "" {
					res.fail(1, "%s: %s", pt.name, msg)
					return
				}
				switch pt.kind {
				case rttPoint:
					// Every round trip, warm-up included, carries the
					// message both ways.
					res.cells += int64(2 * (sz.rttRounds + 1) * atm.CellsFor(pt.size))
				case rxPoint:
					res.cells += tb.B.UDP.Stats().Received * int64(atm.CellsFor(pt.size))
				case txPoint:
					cells, _ := tb.SinkStats()
					res.cells += cells
				}
				if pt.kind != rttPoint {
					mbpsSum += v
					nFig++
				}
				res.points = append(res.points, pointResult{pt.name, pt.paper, v, errPct(v, pt.paper)})
				res.outputs = append(res.outputs, pt.name, v)
				l.nodes(tb.Nodes)
				l.registry(opt.Metrics)
			})
		})
	}
	if nFig > 0 {
		res.goodput = mbpsSum / float64(nFig)
	}
	return res
}

// checkTestbed verifies a finished testbed point: nothing lost or
// corrupted on the wire or in the stack, and every offered message
// delivered. It returns "" when every check passes.
func checkTestbed(tb *core.Testbed, pt paperPoint, sz sizes) string {
	if pt.kind == txPoint {
		cells, _ := tb.SinkStats()
		if sent := tb.A.Board.Stats().CellsTx; sent != cells {
			return fmt.Sprintf("board sent %d cells, sink absorbed %d", sent, cells)
		}
		return ""
	}
	for _, g := range []*atm.StripeGroup{tb.AB, tb.BA} {
		if s := g.Stats(); s.Sent != s.Delivered || s.Lost != 0 {
			return fmt.Sprintf("link sent %d cells, delivered %d, lost %d", s.Sent, s.Delivered, s.Lost)
		}
	}
	for _, n := range tb.Nodes {
		if s := n.UDP.Stats(); s.ChecksumErr != 0 {
			return fmt.Sprintf("%d UDP checksum errors", s.ChecksumErr)
		}
	}
	// The generator starts before the receive ring holds free buffers, so
	// the warm-up message loses a fragment; every later one must arrive.
	if pt.kind == rxPoint {
		if got := tb.B.UDP.Stats().Received; got < int64(sz.rxCount-1) {
			return fmt.Sprintf("%d/%d messages delivered", got, sz.rxCount)
		}
	}
	return ""
}

// checkFabric verifies cell conservation at the switch once the cluster
// has quiesced: every cell that entered was forwarded, dropped, or had
// no route, and nothing is left queued.
func checkFabric(sw *atm.Switch) string {
	s := sw.Stats()
	if s.In != s.Forwarded+s.Dropped+s.NoRoute {
		return fmt.Sprintf("switch conservation: in %d != forwarded %d + dropped %d + no-route %d",
			s.In, s.Forwarded, s.Dropped, s.NoRoute)
	}
	for i := 0; i < sw.NumPorts(); i++ {
		if q := sw.Port(i).QueueLen(); q != 0 {
			return fmt.Sprintf("switch port %d holds %d cells at quiesce", i, q)
		}
	}
	return ""
}

// fabricPass runs a 9-node switched cluster twice: the paced, lossless
// UDP fan-in (open loop at a fixed gap and stagger), then the unpaced
// 8:1 adaptive-RDP incast with ECN marking at 64, which overflows the
// 256-cell switch queue and is closed by RDP's window.
func fabricPass(sz sizes, seed int64, m *meter, l *layers) passResult {
	var res passResult
	fanIn := workload.DefaultFanIn()
	fanIn.Messages = sz.fanInMsgs
	incast := workload.DefaultFanIn()
	incast.Gap, incast.Stagger, incast.Messages = 0, 0, sz.incastMsgs
	msgCells := int64(atm.CellsFor(fanIn.MessageBytes))

	m.tr.do("fanin_paced", func() {
		opt := core.Options{Seed: seed, Metrics: telemetry(l)}
		var cl *core.Cluster
		m.do(setupPhase, func() { cl = core.NewCluster(opt, fanIn.Clients+1) })
		m.depth.attach(cl.Eng)
		var r *core.FanInResult
		var err error
		ev0 := cl.Events()
		m.do(runPhase, func() { r, err = cl.RunFanIn(fanIn) })
		m.do(checkPhase, func() {
			defer cl.Shutdown()
			res.events += cl.Events() - ev0
			offered := fanIn.Clients * fanIn.Messages
			res.attempted += offered
			if err != nil {
				res.fail(offered, "fan-in: %v", err)
				return
			}
			if bad := r.Shortfall + r.Corrupt; bad != 0 || r.SwitchDropped != 0 {
				res.fail(max(bad, 1), "paced fan-in not lossless: %d/%d delivered, %d corrupt, %d switch drops",
					r.Delivered, r.Sent, r.Corrupt, r.SwitchDropped)
			}
			if msg := checkFabric(cl.Fabric); msg != "" {
				res.fail(1, "fan-in: %s", msg)
			}
			res.cells += int64(r.Delivered) * msgCells
			res.goodput += r.AggregateMbps
			res.outputs = append(res.outputs, r)
			l.nodes(cl.Nodes)
			l.fabric(cl.Fabric)
			l.registry(opt.Metrics)
		})
	})

	m.tr.do("incast_rdp", func() {
		opt := core.Options{Seed: seed, FabricMarkThreshold: 64, Metrics: telemetry(l), AdaptiveMetrics: true}
		opt.Board.ReasmResync = true
		var cl *core.Cluster
		m.do(setupPhase, func() { cl = core.NewCluster(opt, incast.Clients+1) })
		m.depth.attach(cl.Eng)
		var r *core.IncastResult
		var err error
		ev0 := cl.Events()
		m.do(runPhase, func() { r, err = cl.RunIncastRDP(core.IncastRDP{Workload: incast, Adaptive: true}) })
		m.do(checkPhase, func() {
			defer cl.Shutdown()
			res.events += cl.Events() - ev0
			offered := incast.Clients * incast.Messages
			res.attempted += offered
			if err != nil {
				res.fail(offered, "incast: %v", err)
				return
			}
			if !r.Lossless() {
				res.fail(max(r.Shortfall+r.Corrupt, 1), "adaptive incast not lossless: %d/%d delivered, %d corrupt",
					r.Delivered, offered, r.Corrupt)
			}
			if msg := checkFabric(cl.Fabric); msg != "" {
				res.fail(1, "incast: %s", msg)
			}
			res.cells += int64(r.Delivered) * msgCells
			res.goodput += r.GoodputMbps
			res.outputs = append(res.outputs, r)
			l.nodes(cl.Nodes)
			l.fabric(cl.Fabric)
			l.registry(opt.Metrics)
			l.add("proto.rdp_retx", float64(r.Retransmits))
			l.add("proto.rdp_msgs", float64(r.Delivered))
			l.add("proto.rdp_timeouts", float64(r.Timeouts))
			l.add("proto.rdp_fast_retx", float64(r.FastRetx))
			l.add("proto.rdp_ecn_backoffs", float64(r.EcnBackoffs))
		})
	})
	return res
}

// discard shuts down an engine that was built but never run. Its procs
// have not started yet, and Engine.Shutdown only reaps started procs, so
// they are started first: otherwise their goroutines, and every host
// they reference, stay live for the rest of the process.
func discard(e *sim.Engine) {
	e.RunUntil(e.Now())
	e.Shutdown()
}

// tenantsPass runs the multi-tenant plane: many steady virtual ADCs with
// open/close churn alongside (more tenants than the fbuf path cache
// holds), then the misbehaving-hog isolation scenario. core.RunTenants
// builds its hosts, boards, links and managers and opens every session
// itself, so all of that falls in the run phase: the pass has no set-up
// phase of its own.
//
// RunTenants checks each delivery's length and first byte only; the
// payload is not exposed for a full byte comparison.
func tenantsPass(sz sizes, seed int64, m *meter, l *layers) passResult {
	var res passResult
	const pduBytes = 1024
	pduCells := int64(atm.CellsFor(pduBytes))
	scenarios := []struct {
		name string
		w    core.Tenants
	}{
		{"tenants_steady", core.Tenants{Tenants: sz.tenants, PDUs: 2, PDUBytes: pduBytes, Churn: sz.churn}},
		{"tenants_hog", core.Tenants{Tenants: sz.hogTenants, PDUs: 4, PDUBytes: pduBytes, Misbehave: true}},
	}
	for _, sc := range scenarios {
		sc := sc
		m.tr.do(sc.name, func() {
			opt := core.Options{Seed: seed, Metrics: telemetry(l), ADCMetrics: true}
			var r *core.TenantsResult
			var err error
			m.do(runPhase, func() { r, err = core.RunTenants(opt, sc.w) })
			m.do(checkPhase, func() {
				offered := sc.w.Tenants*sc.w.PDUs + sc.w.Churn
				res.attempted += offered
				if err != nil {
					res.fail(offered, "%s: %v", sc.name, err)
					return
				}
				if r.Violations != 0 {
					res.fail(1, "%s: %d protection violations", sc.name, r.Violations)
				}
				if sc.w.Misbehave {
					if !r.Isolated {
						res.fail(max(r.Shortfall, 1), "%s: innocents not isolated (worst %d/%d delivered)", sc.name, r.MinDelivered, r.PDUs)
					}
					if r.HogSent == 0 || r.QuotaDropped+r.RingDropped == 0 {
						res.fail(1, "%s: hog scenario vacuous (sent %d, quota drops %d, ring drops %d)",
							sc.name, r.HogSent, r.QuotaDropped, r.RingDropped)
					}
				} else {
					if r.Shortfall != 0 {
						res.fail(r.Shortfall, "%s: %d/%d PDUs delivered", sc.name, r.Delivered, r.Sent)
					}
					if lost := sc.w.Churn - r.ChurnDelivered; lost != 0 || r.ChurnCycles != sc.w.Churn {
						res.fail(max(lost, 1), "%s: churn %d/%d delivered over %d cycles", sc.name, r.ChurnDelivered, sc.w.Churn, r.ChurnCycles)
					}
				}
				res.cells += int64(r.Delivered+r.ChurnDelivered) * pduCells
				res.goodput += r.GoodputMbps
				res.outputs = append(res.outputs, r)
				l.registry(opt.Metrics)
				l.add("fbuf.hits", float64(r.FbufHits))
				l.add("fbuf.misses", float64(r.FbufMisses))
				l.add("fbuf.evictions", float64(r.FbufEvictions))
				l.add("fbuf.demotions", float64(r.FbufDemotions))
				l.add("adc.violations", float64(r.Violations))
				l.add("board.quota_dropped", float64(r.QuotaDropped))
				l.add("board.ring_dropped", float64(r.RingDropped))
			})
		})
	}
	return res
}
