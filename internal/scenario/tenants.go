package scenario

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/fbuf"
	"repro/internal/parexp"
	"repro/internal/stats"
)

// tenantsCase names one multi-tenant configuration together with its
// full result.
type tenantsCase struct {
	Name      string              `json:"name"`
	Churn     int                 `json:"churn"`
	FbufPaths int                 `json:"fbuf_paths"`
	Result    *core.TenantsResult `json:"result"`
}

// tenantsDemux is the VCI-demux microbenchmark's deterministic part:
// the open-addressed receive table with the full sweep's tenant count
// bound, and its allocation count per lookup (the gate pins it at 0).
type tenantsDemux struct {
	BoundVCIs     int     `json:"bound_vcis"`
	LookupsPerRep int     `json:"lookups_per_rep"`
	AllocsPerCell float64 `json:"allocs_per_cell"`
}

// tenantsScaling records the sweep's per-PDU cost growth from its first
// to its last point; the gate requires it to stay well under linear in
// the tenant count.
type tenantsScaling struct {
	FirstTenants int     `json:"first_tenants"`
	LastTenants  int     `json:"last_tenants"`
	PerPDURatio  float64 `json:"per_pdu_ratio"`
}

// tenantsReport is the BENCH_tenants.json schema.
type tenantsReport struct {
	Schema    string          `json:"schema"`
	Scenarios []tenantsCase   `json:"scenarios"`
	Scaling   *tenantsScaling `json:"scaling,omitempty"`
	Demux     tenantsDemux    `json:"demux"`
}

// tenantsWall is the wall-clock section: the demux lookup's time.
type tenantsWall struct {
	wallHeader
	DemuxNsPerCell float64 `json:"demux_ns_per_cell"`
}

const tenantsHogName = "tenants/hog/32"

// tenants drives the multi-tenant plane in three parts.
//
// Sweep: 8 → 1024 concurrent virtual-ADC tenants (far past the
// adaptor's 15 queue-page pairs) with connection churn running
// alongside, all PDUs verified at the receiver.
//
// Isolation: the seeded misbehaving-tenant scenario — a full-blast
// sender paired with a never-reaping receiver, sharing the adaptor with
// paced innocents.
//
// Demux: the open-addressed VCI table with 1024 tenants bound,
// measured directly: allocations per cell (deterministic) and wall
// ns per cell (in the wall section).
//
// core.RunTenants builds its own system, and registers no telemetry unless asked for the ADC families.
func tenants(cfg Config) (Report, error) {
	churn, counts := 32, []int{8, 64, 256, 1024}
	if cfg.Quick {
		churn, counts = 16, []int{8, 64, 256}
	}
	type spec struct {
		name string
		w    core.Tenants
	}
	var specs []spec
	for _, n := range counts {
		specs = append(specs, spec{fmt.Sprintf("tenants/sweep/%d", n), core.Tenants{Tenants: n, PDUs: 2, PDUBytes: 1024, Churn: churn}})
	}
	specs = append(specs, spec{tenantsHogName, core.Tenants{Tenants: 32, PDUs: 4, PDUBytes: 1024, Misbehave: true}})
	var jobs []parexp.Job
	for _, sp := range specs {
		sp := sp
		jobs = append(jobs, parexp.Job{
			Name: sp.name,
			// The big tenant counts dominate; start them first.
			Cost: float64(sp.w.Tenants),
			Run:  func() (any, error) { return core.RunTenants(cfg.options(core.Options{}), sp.w) },
		})
	}
	vals, err := cfg.run(jobs)
	if err != nil || len(vals) == 0 {
		return Report{}, err
	}
	report := tenantsReport{Schema: "osiris-tenants/2"}
	byName := map[string]*core.TenantsResult{}
	for _, sp := range specs {
		v, ok := vals[sp.name]
		if !ok {
			continue
		}
		res := v.(*core.TenantsResult)
		byName[sp.name] = res
		fp := sp.w.FbufPaths
		if fp == 0 {
			fp = fbuf.DefaultMaxCachedPaths
		}
		report.Scenarios = append(report.Scenarios, tenantsCase{Name: sp.name, Churn: sp.w.Churn, FbufPaths: fp, Result: res})
	}

	// Sweep table: per-PDU cost and cache behavior vs tenant count.
	tab := stats.Table{
		Title: fmt.Sprintf("virtual-ADC scale-out (2×1KB PDUs/tenant, %d churn cycles)", churn),
		Cols: []string{"tenants", "delivered", "churn", "mux ch", "VCIs",
			"per-PDU µs", "goodput Mbps", "fbuf hit", "fbuf miss", "evict"},
	}
	for _, n := range counts {
		res := byName[fmt.Sprintf("tenants/sweep/%d", n)]
		if res == nil {
			continue
		}
		tab.AddRow(fmt.Sprint(n),
			fmt.Sprintf("%d/%d", res.Delivered, res.Sent),
			fmt.Sprintf("%d/%d", res.ChurnDelivered, res.ChurnCycles),
			fmt.Sprint(res.MuxChannels),
			fmt.Sprint(res.PeakBoundVCIs),
			fmt.Sprintf("%.1f", res.PerPDUCost.Seconds()*1e6),
			fmt.Sprintf("%.1f", res.GoodputMbps),
			fmt.Sprint(res.FbufHits),
			fmt.Sprint(res.FbufMisses),
			fmt.Sprint(res.FbufEvictions))
	}
	text := "== Multi-tenant plane: virtual-ADC scale-out, fairness, demux ==\n" + tab.Render() + "\n"

	first := byName[fmt.Sprintf("tenants/sweep/%d", counts[0])]
	last := byName[fmt.Sprintf("tenants/sweep/%d", counts[len(counts)-1])]
	if first != nil && last != nil && first.PerPDUCost > 0 {
		report.Scaling = &tenantsScaling{
			FirstTenants: first.Tenants,
			LastTenants:  last.Tenants,
			PerPDURatio:  float64(last.PerPDUCost) / float64(first.PerPDUCost),
		}
		text += fmt.Sprintf("per-PDU cost %d→%d tenants: ×%.2f (linear would be ×%.0f)\n",
			first.Tenants, last.Tenants, report.Scaling.PerPDURatio, float64(last.Tenants)/float64(first.Tenants))
	}

	// Isolation table: the misbehaving tenant against the fairness
	// mechanisms (DRR transmit quantum, per-channel FIFO quota,
	// receive-ring drop grace).
	if hog := byName[tenantsHogName]; hog != nil {
		htab := stats.Table{
			Title: "misbehaving tenant: full-blast sender, never-reaping receiver, 32 paced innocents",
			Cols:  []string{"min delivered", "isolated", "hog sent", "quota drops", "ring drops", "violations"},
		}
		htab.AddRow(fmt.Sprintf("%d/%d", hog.MinDelivered, hog.PDUs),
			fmt.Sprint(hog.Isolated),
			fmt.Sprint(hog.HogSent),
			fmt.Sprint(hog.QuotaDropped),
			fmt.Sprint(hog.RingDropped),
			fmt.Sprint(hog.Violations))
		text += htab.Render() + "\n"
	}

	var wall tenantsWall
	report.Demux, wall, err = measureTenantsDemux()
	if err != nil {
		return Report{}, err
	}
	text += fmt.Sprintf("demux: %d VCIs bound, %g allocs/cell (gate: 0), %.1f ns/cell\n",
		report.Demux.BoundVCIs, report.Demux.AllocsPerCell, wall.DemuxNsPerCell)
	return newReport(report, wall, text)
}

// measureTenantsDemux measures the receive demultiplexer directly: the
// open-addressed VCI table with 1024 tenants bound, the sweep's largest
// point. AllocsPerRun is exact and repeatable — it is the gate — while
// the wall-clock figure is advisory.
func measureTenantsDemux() (tenantsDemux, tenantsWall, error) {
	const nVCIs = 1024
	var tab board.VCITable
	ch := &board.Channel{Index: 3}
	vcis := make([]atm.VCI, nVCIs)
	for i := range vcis {
		vcis[i] = atm.VCI(100 + i)
		tab.Bind(vcis[i], ch)
	}
	var sink *board.Channel
	sweep := func() {
		for _, v := range vcis {
			sink = tab.Lookup(v)
		}
	}
	allocs := testing.AllocsPerRun(200, sweep)
	const reps = 2000
	start := time.Now()
	for r := 0; r < reps; r++ {
		sweep()
	}
	wall := time.Since(start)
	if sink == nil {
		return tenantsDemux{}, tenantsWall{}, errors.New("tenants: demux lookup returned nil")
	}
	return tenantsDemux{BoundVCIs: tab.Len(), LookupsPerRep: nVCIs, AllocsPerCell: allocs / nVCIs},
		tenantsWall{wallHeader: newWallHeader(), DemuxNsPerCell: float64(wall.Nanoseconds()) / float64(reps*nVCIs)}, nil
}

// checkTenants is the multi-tenant plane's gate: every sweep point is
// lossless with no protection violations, per-PDU cost grows well under
// linearly in the tenant count, the misbehaving tenant is isolated (and
// really misbehaves), and the demux lookup allocates nothing.
func checkTenants(r Report) error {
	rep := r.value.(tenantsReport)
	for _, c := range rep.Scenarios {
		res := c.Result
		if c.Name == tenantsHogName {
			if !res.Isolated {
				return fmt.Errorf("tenants: innocents not isolated from the hog (min %d/%d delivered)", res.MinDelivered, res.PDUs)
			}
			if res.HogSent == 0 || (res.QuotaDropped == 0 && res.RingDropped == 0) {
				return fmt.Errorf("tenants: hog scenario vacuous (sent %d, quota drops %d, ring drops %d)",
					res.HogSent, res.QuotaDropped, res.RingDropped)
			}
			continue
		}
		if res.Shortfall != 0 {
			return fmt.Errorf("tenants: sweep point %d lost %d PDUs", res.Tenants, res.Shortfall)
		}
		if res.Violations != 0 {
			return fmt.Errorf("tenants: sweep point %d raised %d protection violations", res.Tenants, res.Violations)
		}
	}
	// Sub-linear bar with margin: the multiplexing cost per PDU may not
	// grow past half the tenant-count ratio.
	if s := rep.Scaling; s != nil {
		if scale := float64(s.LastTenants) / float64(s.FirstTenants); !(s.PerPDURatio*2 < scale) {
			return fmt.Errorf("tenants: per-PDU cost grew ×%.2f over a ×%.0f tenant scale-out; demux/mux cost is not sub-linear",
				s.PerPDURatio, scale)
		}
	}
	if rep.Demux.AllocsPerCell != 0 {
		return fmt.Errorf("tenants: demux lookup allocates (%g allocs/cell at %d tenants)", rep.Demux.AllocsPerCell, rep.Demux.BoundVCIs)
	}
	return nil
}
