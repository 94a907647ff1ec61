package scenario

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/parexp"
	"repro/internal/stats"
	"repro/internal/workload"
)

// metricsExperiment is one instrumented run's canonical snapshot. Only
// simulated-behaviour metrics appear (diagnostics are excluded, since
// they vary with the shard count).
type metricsExperiment struct {
	Name    string          `json:"name"`
	Metrics []metrics.Value `json:"metrics"`
}

// metricsReport is the BENCH_metrics.json schema.
type metricsReport struct {
	Schema      string              `json:"schema"`
	Experiments []metricsExperiment `json:"experiments"`
}

// pacedFanIn is the 4×8 KB fan-in paced into partial overload: the
// server's board, not the fabric, is the bottleneck and sheds load at
// its receive FIFO while most messages deliver and are verified byte
// for byte. The simcore and metrics scenarios share it.
func pacedFanIn() workload.FanIn {
	return workload.FanIn{
		Clients: 4, MessageBytes: 8192, Messages: 25,
		Gap:     2 * time.Millisecond,
		Stagger: 500 * time.Microsecond,
	}
}

// metricsSnapshots runs two instrumented experiments and records their
// canonical telemetry snapshots. fanin_4x8k registers every board,
// driver, RDP and fabric port family plus the end-to-end delivery
// latency sketch, with a real congestion signature (server-port queue
// drops, FIFO sheds); fig3_receive_64k is the Figure 3 receive path
// (DEC 3000/600, double-cell DMA, 64 KB messages), the board's
// FIFO/reassembly families under the link-limited workload. Both always
// carry telemetry, and have no quick size.
func metricsSnapshots(cfg Config) (Report, error) {
	type out struct {
		exp  metricsExperiment
		line string
	}
	jobs := []parexp.Job{
		{Name: "metrics/fanin_4x8k", Run: func() (any, error) {
			w := pacedFanIn()
			opt := cfg.options(core.Options{})
			opt.Metrics = metrics.New()
			cl := core.NewCluster(opt, w.Clients+1)
			defer cl.Shutdown()
			res, err := cl.RunFanIn(w)
			if err != nil {
				return nil, err
			}
			snap := opt.Metrics.Snapshot(false)
			return out{metricsExperiment{"fanin_4x8k", snap},
				fmt.Sprintf("fanin_4x8k: delivered %d/%d, %d canonical metrics\n", res.Delivered, res.Sent, len(snap))}, nil
		}},
		{Name: "metrics/fig3_receive_64k", Run: func() (any, error) {
			opt := cfg.options(alOptions())
			opt.Board = board.Config{RxDMA: board.DoubleCell}
			opt.Metrics = metrics.New()
			tb := core.NewTestbed(opt)
			defer tb.Shutdown()
			mbps, err := tb.RunReceiveThroughput(65536, 16)
			if err != nil {
				return nil, err
			}
			snap := opt.Metrics.Snapshot(false)
			return out{metricsExperiment{"fig3_receive_64k", snap},
				fmt.Sprintf("fig3_receive_64k: %.1f Mbps, %d canonical metrics\n", mbps, len(snap))}, nil
		}},
	}
	vals, err := cfg.run(jobs)
	if err != nil || len(vals) == 0 {
		return Report{}, err
	}
	report := metricsReport{Schema: "osiris-metrics/1"}
	text := "== Telemetry snapshots (canonical, seed-stable) ==\n"
	for _, j := range jobs {
		if v, ok := vals[j.Name]; ok {
			report.Experiments = append(report.Experiments, v.(out).exp)
			text += v.(out).line
		}
	}
	if report.Experiments[0].Name == "fanin_4x8k" {
		text += headline(report.Experiments[0], "fabric/port0/", "fanin/", "n0/board/rx_fifo") + "\n"
	}
	return newReport(report, nil, text)
}

// headline renders the metrics whose name matches one of the prefixes —
// the table EXPERIMENTS.md quotes.
func headline(exp metricsExperiment, prefixes ...string) string {
	tab := stats.Table{Cols: []string{"metric", "kind", "value"}}
	for _, v := range exp.Metrics {
		keep := false
		for _, p := range prefixes {
			if strings.HasPrefix(v.Name, p) {
				keep = true
				break
			}
		}
		if !keep {
			continue
		}
		val := fmt.Sprint(v.Value)
		if v.Kind == "quantile" {
			parts := make([]string, 0, len(v.Quantiles))
			for _, q := range v.Quantiles {
				parts = append(parts, fmt.Sprintf("p%02.0f=%.1f", q.Q*100, q.V))
			}
			val = fmt.Sprintf("n=%d %s", v.Count, strings.Join(parts, " "))
		}
		tab.AddRow(v.Name, v.Kind, val)
	}
	return tab.Render()
}
