package scenario

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/parexp"
)

// allocGate bounds fanin_4x8k's heap allocations per simulated cell.
// Allocation counts are deterministic, unlike wall time, so the gate
// reads the same at any GOMAXPROCS; 0.25 leaves headroom over the
// measured ~0.18 on the switched fan-in hot path.
const allocGate = 0.25

// simcoreResult is one workload's simulated outcome, bit-for-bit stable
// for a fixed seed.
type simcoreResult struct {
	Name       string             `json:"name"`
	SimSeconds float64            `json:"sim_seconds"`
	Cells      int64              `json:"cells"`
	Check      map[string]float64 `json:"check"`
}

// simcoreWallResult is one workload's wall-clock measurement: the best
// of its repetitions. Events sit here because a sharded engine skips
// wakeups a serial one executes.
type simcoreWallResult struct {
	Name          string  `json:"name"`
	WallSeconds   float64 `json:"wall_seconds"`
	Events        uint64  `json:"events"`
	Allocs        uint64  `json:"allocs"`
	EventsPerSec  float64 `json:"events_per_sec"`
	NsPerCell     float64 `json:"ns_per_cell"`
	AllocsPerCell float64 `json:"allocs_per_cell"`
}

// simcoreReport is the BENCH_simcore.json schema.
type simcoreReport struct {
	Schema  string          `json:"schema"`
	Results []simcoreResult `json:"results"`
}

type simcoreWall struct {
	wallHeader
	Results []simcoreWallResult `json:"results"`
}

// simcoreRun is one repetition's measurement, both parts.
type simcoreRun struct {
	det  simcoreResult
	wall simcoreWallResult
}

// measure runs fn with the memory accounting bracketed, attributing the
// wall time, allocation delta, executed events, and simulated cells to
// one named workload. Setup (system construction) happens in the
// caller, outside the bracket, so steady-state per-cell costs dominate.
func measure(name string, fn func() (events uint64, simTime time.Duration, cells int64, check map[string]float64, err error)) (simcoreRun, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	events, simTime, cells, check, err := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return simcoreRun{}, err
	}
	allocs := after.Mallocs - before.Mallocs
	r := simcoreRun{
		det:  simcoreResult{Name: name, SimSeconds: simTime.Seconds(), Cells: cells, Check: check},
		wall: simcoreWallResult{Name: name, WallSeconds: wall.Seconds(), Events: events, Allocs: allocs},
	}
	if wall > 0 {
		r.wall.EventsPerSec = float64(events) / wall.Seconds()
	}
	if cells > 0 {
		r.wall.NsPerCell = float64(wall.Nanoseconds()) / float64(cells)
		r.wall.AllocsPerCell = float64(allocs) / float64(cells)
	}
	return r, nil
}

// simcoreFig3 measures the Figure 3 receive path: the DEC 3000/600
// double-cell DMA configuration absorbing fictitious UDP/IP traffic —
// the workload whose plateau the paper shows is link-limited, so any
// simulator overhead here directly stretches the wall clock.
func simcoreFig3(cfg Config) (simcoreRun, error) {
	opt := cfg.serial(alOptions())
	opt.Board = board.Config{RxDMA: board.DoubleCell}
	tb := core.NewTestbed(opt)
	defer tb.Shutdown()
	return measure("fig3_receive_64k", func() (uint64, time.Duration, int64, map[string]float64, error) {
		ev0 := tb.Events()
		mbps, err := tb.RunReceiveThroughput(65536, 32)
		st := tb.B.Board.Stats()
		return tb.Events() - ev0, time.Duration(tb.Now()), st.CellsRx, map[string]float64{
			"mbps":     mbps,
			"cells_rx": float64(st.CellsRx),
		}, err
	})
}

// simcoreFanIn measures the switched fan-in workload (pacedFanIn):
// every check value carries signal, so a regression in pacing,
// switching, reassembly, or delivery accounting moves at least one.
func simcoreFanIn(cfg Config) (simcoreRun, error) {
	w := pacedFanIn()
	cl := core.NewCluster(cfg.serial(core.Options{}), w.Clients+1)
	defer cl.Shutdown()
	return measure("fanin_4x8k", func() (uint64, time.Duration, int64, map[string]float64, error) {
		ev0 := cl.Events()
		res, err := cl.RunFanIn(w)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		bs := cl.Nodes[0].Board.Stats()
		return cl.Events() - ev0, time.Duration(cl.Now()), res.SwitchForwarded + res.SwitchDropped, map[string]float64{
			"delivered":        float64(res.Delivered),
			"aggregate_mbps":   res.AggregateMbps,
			"switch_forwarded": float64(res.SwitchForwarded),
			"switch_dropped":   float64(res.SwitchDropped),
			"fifo_dropped":     float64(bs.CellsDroppedFIFO),
			"pdus_dropped":     float64(bs.PDUsDropped),
		}, nil
	})
}

// serial is options on the serial engine, whatever Config.Shards says:
// simcore measures the serial hot path, and its allocation gate is
// calibrated there (the shards scenario measures the sharded engine).
func (c Config) serial(o core.Options) core.Options {
	o = c.options(o)
	o.Shards = 0
	return o
}

// simcore is the simulation core's wall-clock benchmark. Every workload
// runs several repetitions on a fresh system each (jobs named
// simcore/<workload>/rep<i>), keeping the one with the lowest wall
// time. The repetitions always run one at a time, whatever
// Config.Workers says: measure reads the wall clock and the
// process-global MemStats.Mallocs, so a repetition running beside
// another would share its CPUs and count its allocations.
func simcore(cfg Config) (Report, error) {
	reps := 3
	if cfg.Quick {
		reps = 1
	}
	workloads := []struct {
		name string
		fn   func(Config) (simcoreRun, error)
	}{
		{"fig3_receive_64k", simcoreFig3},
		{"fanin_4x8k", simcoreFanIn},
	}
	var jobs []parexp.Job
	for _, w := range workloads {
		w := w
		for i := 0; i < reps; i++ {
			jobs = append(jobs, parexp.Job{
				Name: fmt.Sprintf("simcore/%s/rep%d", w.name, i),
				Run:  func() (any, error) { return w.fn(cfg) },
			})
		}
	}
	vals, err := runOn(1, cfg.selected(jobs))
	if err != nil || len(vals) == 0 {
		return Report{}, err
	}
	report := simcoreReport{Schema: "osiris-simbench/2"}
	wall := simcoreWall{wallHeader: newWallHeader()}
	text := "== Simulator core wall-clock benchmarks ==\n"
	for i, w := range workloads {
		var best *simcoreRun
		for _, j := range jobs[i*reps : (i+1)*reps] {
			v, ok := vals[j.Name]
			if !ok {
				continue
			}
			if run := v.(simcoreRun); best == nil || run.wall.WallSeconds < best.wall.WallSeconds {
				best = &run
			}
		}
		if best == nil {
			continue
		}
		report.Results = append(report.Results, best.det)
		wall.Results = append(wall.Results, best.wall)
		text += fmt.Sprintf("%-18s %8.0f events/s  %7.0f ns/cell  %6.2f allocs/cell  (sim %v in wall %v)\n",
			w.name, best.wall.EventsPerSec, best.wall.NsPerCell, best.wall.AllocsPerCell,
			time.Duration(best.det.SimSeconds*1e9).Round(time.Microsecond),
			time.Duration(best.wall.WallSeconds*1e9).Round(time.Microsecond))
	}
	r, err := newReport(report, wall, text)
	r.value = wall
	return r, err
}

// checkSimcore is the allocation gate on the switched fan-in hot path.
func checkSimcore(r Report) error {
	for _, w := range r.value.(simcoreWall).Results {
		if w.Name == "fanin_4x8k" && w.AllocsPerCell > allocGate {
			return fmt.Errorf("simcore: %s at %.3f allocs/cell exceeds the %.3f gate", w.Name, w.AllocsPerCell, allocGate)
		}
	}
	return nil
}
