package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/parexp"
	"repro/internal/stats"
)

// faultsReport is the BENCH_faults.json schema.
type faultsReport struct {
	Schema string `json:"schema"`
	*core.LossSweepResult
}

// faults sweeps burst cell-loss rates over the two-host testbed with
// the full fault mix on (Gilbert–Elliott loss plus a little corruption
// and duplication) and the degradation machinery armed (reassembly
// timeouts, CRC check, duplicate filter, RDP backoff with a retry cap),
// every rate over the fixed-timer and the adaptive transport. Each rate
// is one job, named faults/rate=<r>. The loss sweep runs on its own
// serial testbed, so Shards, PerCell and Telemetry do not reach it.
func faults(cfg Config) (Report, error) {
	sweep := core.LossSweep{CorruptProb: 0.0005, DupProb: 0.0005, Rates: core.DefaultLossRates()}
	if cfg.Quick {
		sweep.Rates = []float64{0, 0.001, 0.01, 0.05}
		sweep.Messages = 16
	}
	var jobs []parexp.Job
	for _, rate := range sweep.Rates {
		rate := rate
		jobs = append(jobs, parexp.Job{
			Name: fmt.Sprintf("faults/rate=%g", rate),
			Seed: core.DefaultSeed,
			// Heavier loss means more retransmission rounds and a longer
			// simulated run; start those first.
			Cost: rate,
			Run:  func() (any, error) { return core.RunLossPoint(sweep, rate) },
		})
	}
	vals, err := cfg.run(jobs)
	if err != nil || len(vals) == 0 {
		return Report{}, err
	}
	var points []core.LossSweepPoint
	for _, j := range jobs {
		if v, ok := vals[j.Name]; ok {
			points = append(points, v.(core.LossSweepPoint))
		}
	}
	res := sweep.Result(points)

	tab := stats.Table{Cols: []string{
		"loss", "delivered", "goodput Mbps", "retx", "timeouts",
		"cells lost", "reasm TO", "aborts", "CRC drop", "dup rej",
	}}
	// Recovery comparison: fixed 2 ms timer with exponential backoff vs
	// the RTT-estimated adaptive timer, same seeds and fault streams.
	atab := stats.Table{
		Title: "fixed-timer vs adaptive (RTT-estimated) recovery",
		Cols: []string{
			"loss", "fixed goodput", "fixed retx", "fixed TO",
			"adaptive goodput", "adaptive retx", "adaptive TO", "fast retx", "rtt samples",
		},
	}
	for _, pt := range res.Points {
		tab.AddRow(
			fmt.Sprintf("%.3f", pt.MeanLoss),
			fmt.Sprintf("%d/%d", pt.Delivered, pt.Sent),
			fmt.Sprintf("%.1f", pt.GoodputMbps),
			fmt.Sprint(pt.Retransmits),
			fmt.Sprint(pt.Timeouts),
			fmt.Sprint(pt.CellsLost),
			fmt.Sprint(pt.PDUsTimedOut),
			fmt.Sprint(pt.RxAborted),
			fmt.Sprint(pt.PDUsCRCDropped),
			fmt.Sprint(pt.DupCellsRej),
		)
		atab.AddRow(
			fmt.Sprintf("%.3f", pt.MeanLoss),
			fmt.Sprintf("%.1f", pt.GoodputMbps),
			fmt.Sprint(pt.Retransmits),
			fmt.Sprint(pt.Timeouts),
			fmt.Sprintf("%.1f", pt.Adaptive.GoodputMbps),
			fmt.Sprint(pt.Adaptive.Retransmits),
			fmt.Sprint(pt.Adaptive.Timeouts),
			fmt.Sprint(pt.Adaptive.FastRetx),
			fmt.Sprint(pt.Adaptive.RTTSamples),
		)
	}
	text := "== Fault plane: RDP delivery under burst cell loss ==\n" +
		tab.Render() + "\n" + atab.Render() + "\n" +
		"every delivery is verified byte for byte; loss surfaces as retransmission effort, never corruption\n"
	return newReport(faultsReport{"osiris-faults/1", res}, nil, text)
}

// checkFaults is the fault plane's gate: loss surfaces as missing PDUs,
// never corrupt ones, and no board leaks reassembly state at exit.
func checkFaults(r Report) error {
	for _, pt := range r.value.(faultsReport).Points {
		if pt.Corrupt != 0 {
			return fmt.Errorf("faults: rate %g: %d corrupt deliveries", pt.MeanLoss, pt.Corrupt)
		}
		if pt.OpenReassemblies != 0 || pt.HeldReasmBufs != 0 {
			return fmt.Errorf("faults: rate %g: leaked reassembly state: open=%d held=%d",
				pt.MeanLoss, pt.OpenReassemblies, pt.HeldReasmBufs)
		}
	}
	return nil
}
