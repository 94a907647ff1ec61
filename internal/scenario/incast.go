package scenario

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/parexp"
	"repro/internal/stats"
	"repro/internal/workload"
)

// incastCase names one (workload, fabric, transport) combination of the
// incast plane, together with its full result.
type incastCase struct {
	Name          string             `json:"name"`
	Adaptive      bool               `json:"adaptive"`
	Clients       int                `json:"clients"`
	MessageBytes  int                `json:"message_bytes"`
	Messages      int                `json:"messages"`
	GapNS         int64              `json:"gap_ns"`
	QueueCells    int                `json:"queue_cells"`
	MarkThreshold int                `json:"mark_threshold"`
	Result        *core.IncastResult `json:"result"`
}

// incastReport is the BENCH_incast.json schema.
type incastReport struct {
	Schema    string       `json:"schema"`
	Scenarios []incastCase `json:"scenarios"`
}

// quickLegacyHorizon bounds the legacy collapse point in a quick run.
// The fixed-timer sender grinds through millions of switch drops until
// the default horizon; 120 ms already shows its shortfall. For the same
// reason a quick run leaves out the legacy curve, which costs seconds
// per point.
const quickLegacyHorizon = 120 * time.Millisecond

// incastGaps is the pacing grid of the goodput-vs-offered-load curve:
// gap 0 is the unpaced collapse regime, the rest walk the offered load
// down through the knee.
func incastGaps(quick bool) []time.Duration {
	if quick {
		return []time.Duration{0, 500 * time.Microsecond, 2 * time.Millisecond}
	}
	ms := time.Millisecond
	return []time.Duration{0, ms / 4, ms / 2, ms, 2 * ms, 4 * ms, 8 * ms}
}

func transportName(adaptive bool) string {
	if adaptive {
		return "adaptive"
	}
	return "legacy"
}

// incast drives the reliable-transport incast plane in two regimes.
//
// Collapse: the unpaced 8×16 KB fan-in through the default 256-cell
// switch queue — the workload that collapses the unreliable stack
// (examples/fanin-server) and starves the legacy fixed-timer RDP.
//
// Curve: 4 KB messages through a deeper (1024-cell) queue with ECN
// marking at 128, swept over pacing gaps, adaptive vs legacy — the
// goodput-vs-offered-load table showing no collapse past the knee.
func incast(cfg Config) (Report, error) {
	collapse := workload.DefaultFanIn()
	collapse.Gap = 0
	collapse.Stagger = 0
	var cases []incastCase
	add := func(name string, adaptive bool, w workload.FanIn, queueCells, mark int) {
		cases = append(cases, incastCase{
			Name: name, Adaptive: adaptive,
			Clients: w.Clients, MessageBytes: w.MessageBytes, Messages: w.Messages, GapNS: int64(w.Gap),
			QueueCells: queueCells, MarkThreshold: mark,
		})
	}
	for _, ad := range []bool{true, false} {
		add("incast/collapse/"+transportName(ad), ad, collapse, 256, 64)
	}
	curve := workload.FanIn{Clients: 8, MessageBytes: 4096, Messages: 32}
	transports := []bool{true, false}
	if cfg.Quick {
		curve.Messages = 16
		transports = transports[:1]
	}
	for _, gap := range incastGaps(cfg.Quick) {
		for _, ad := range transports {
			w := curve
			w.Gap = gap
			add(fmt.Sprintf("incast/curve/%s/gap=%s", transportName(ad), gap), ad, w, 1024, 128)
		}
	}

	var jobs []parexp.Job
	for _, c := range cases {
		c := c
		w := workload.FanIn{Clients: c.Clients, MessageBytes: c.MessageBytes, Messages: c.Messages, Gap: time.Duration(c.GapNS)}
		spec := core.IncastRDP{Workload: w, Adaptive: c.Adaptive}
		if cfg.Quick && !c.Adaptive {
			spec.Horizon = quickLegacyHorizon
		}
		jobs = append(jobs, parexp.Job{
			Name: c.Name,
			// The unpaced points churn the longest; start them first.
			Cost: float64(w.MessageBytes) / float64(1+w.Gap),
			Run: func() (any, error) {
				return core.RunIncastRDP(cfg.options(core.Options{
					FabricQueueCells:    c.QueueCells,
					FabricMarkThreshold: c.MarkThreshold,
				}), spec)
			},
		})
	}
	vals, err := cfg.run(jobs)
	if err != nil || len(vals) == 0 {
		return Report{}, err
	}
	report := incastReport{Schema: "osiris-incast/1"}
	byName := map[string]*core.IncastResult{}
	for _, c := range cases {
		if v, ok := vals[c.Name]; ok {
			c.Result = v.(*core.IncastResult)
			byName[c.Name] = c.Result
			report.Scenarios = append(report.Scenarios, c)
		}
	}

	ctab := stats.Table{
		Title: fmt.Sprintf("unpaced %d×%dKB collapse (256-cell queue)", collapse.Clients, collapse.MessageBytes/1024),
		Cols:  []string{"transport", "delivered", "shortfall", "goodput Mbps", "retx", "timeouts", "switch drops"},
	}
	for _, ad := range []bool{true, false} {
		res := byName["incast/collapse/"+transportName(ad)]
		if res == nil {
			continue
		}
		ctab.AddRow(transportName(ad),
			fmt.Sprintf("%d/%d", res.Delivered, res.Sent),
			fmt.Sprint(res.Shortfall),
			fmt.Sprintf("%.1f", res.GoodputMbps),
			fmt.Sprint(res.Retransmits),
			fmt.Sprint(res.Timeouts),
			fmt.Sprint(res.SwitchDropped))
	}
	ktab := stats.Table{
		Title: "goodput vs offered load, 8×4KB (1024-cell queue, ECN mark at 128)",
		Cols: []string{
			"gap", "offered Mbps", "adaptive Mbps", "adaptive short",
			"legacy Mbps", "legacy short", "ECN echo", "ECN backoff", "drops",
		},
	}
	for _, gap := range incastGaps(cfg.Quick) {
		a := byName[fmt.Sprintf("incast/curve/adaptive/gap=%s", gap)]
		l := byName[fmt.Sprintf("incast/curve/legacy/gap=%s", gap)]
		if a == nil && l == nil {
			continue
		}
		row := []string{fmt.Sprint(gap), "?", "?", "?", "?", "?", "?", "?", "?"}
		if a != nil {
			row[1] = fmt.Sprintf("%.1f", a.OfferedMbps)
			row[2] = fmt.Sprintf("%.1f", a.GoodputMbps)
			row[3] = fmt.Sprint(a.Shortfall)
			row[6] = fmt.Sprint(a.EcnEchoed)
			row[7] = fmt.Sprint(a.EcnBackoffs)
			row[8] = fmt.Sprint(a.SwitchDropped)
		}
		if l != nil {
			row[4] = fmt.Sprintf("%.1f", l.GoodputMbps)
			row[5] = fmt.Sprint(l.Shortfall)
		}
		ktab.AddRow(row...)
	}
	text := "== Incast plane: reliable fan-in, adaptive vs legacy RDP ==\n" +
		ctab.Render() + "\n" + ktab.Render() + "\n" +
		"every delivery is verified byte for byte at the server; shortfall counts messages the horizon expired on\n"
	if cfg.Quick {
		text += fmt.Sprintf("quick: no legacy curve; the legacy collapse stops at a %v horizon\n", quickLegacyHorizon)
	}
	return newReport(report, nil, text)
}

// checkIncast is the incast plane's gate. The adaptive transport
// delivers the unpaced 8:1 collapse losslessly, while the legacy one
// visibly collapses (shortfall and switch drops) in the same regime;
// and every adaptive point sees ECN marks, so the mark → echo →
// backoff loop is exercised.
func checkIncast(r Report) error {
	for _, c := range r.value.(incastReport).Scenarios {
		res := c.Result
		switch {
		case c.Name == "incast/collapse/adaptive" && !res.Lossless():
			return fmt.Errorf("incast: adaptive transport failed the unpaced lossless bar (delivered %d/%d, corrupt %d)",
				res.Delivered, res.Sent, res.Corrupt)
		case c.Name == "incast/collapse/legacy" && (res.Shortfall == 0 || res.SwitchDropped == 0):
			return fmt.Errorf("incast: legacy transport no longer collapses (shortfall %d, switch drops %d)",
				res.Shortfall, res.SwitchDropped)
		case c.Adaptive && res.SwitchMarked == 0:
			return fmt.Errorf("%s: no ECN marks", c.Name)
		}
	}
	return nil
}
