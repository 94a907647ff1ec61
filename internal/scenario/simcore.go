package scenario

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/parexp"
	"repro/internal/sim"
)

// allocGate bounds fanin_4x8k's heap allocations per simulated cell.
// Allocation counts are deterministic, unlike wall time, so the gate
// reads the same at any GOMAXPROCS; 0.034 leaves about 10% headroom
// over the measured 0.031 on the switched fan-in hot path.
const allocGate = 0.034

// resumeGates bound each workload's proc resumes per simulated cell:
// coroutine switches, each dearer than a plain event. Like allocation
// counts they are deterministic. Each gate leaves about 10% headroom
// over the measured level: 0.0234 on fig3_receive_64k, and 0.433 on
// fanin_4x8k on either switch machine. Neither the board nor the
// switch nor the kernel's interrupt service nor the driver's buffer
// set-up runs as a proc, and a proc awaiting an operation is resumed
// once, when it finishes (sim.Proc.Await), so what is left is one
// resume per wait of the driver's receive threads, the protocols and
// the applications.
var resumeGates = map[string]float64{
	"fig3_receive_64k": 0.026,
	"fanin_4x8k":       0.48,
}

// simcoreResult is one workload's simulated outcome, bit-for-bit stable
// for a fixed seed.
type simcoreResult struct {
	Name       string             `json:"name"`
	SimSeconds float64            `json:"sim_seconds"`
	Cells      int64              `json:"cells"`
	Check      map[string]float64 `json:"check"`
}

// simcoreWallResult is one workload's wall-clock measurement: the best
// of its repetitions. Events sit here beside the rate they are the
// denominator of, and proc resumes beside them.
type simcoreWallResult struct {
	Name           string  `json:"name"`
	WallSeconds    float64 `json:"wall_seconds"`
	Events         uint64  `json:"events"`
	Resumes        uint64  `json:"resumes"`
	Allocs         uint64  `json:"allocs"`
	EventsPerSec   float64 `json:"events_per_sec"`
	NsPerCell      float64 `json:"ns_per_cell"`
	ResumesPerCell float64 `json:"resumes_per_cell"`
	AllocsPerCell  float64 `json:"allocs_per_cell"`
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

// measure runs fn on engine e with the memory accounting bracketed,
// attributing the wall time, allocation delta, executed events, proc
// resumes and simulated cells to one named workload. Setup (system
// construction) happens in the caller, outside the bracket, so
// steady-state per-cell costs dominate.
func measure(name string, e *sim.Engine, fn func() (simTime time.Duration, cells int64, check map[string]float64, err error)) (simcoreRun, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ev0, res0 := e.Events(), e.Resumes()
	start := time.Now()
	simTime, cells, check, err := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return simcoreRun{}, err
	}
	events, resumes := e.Events()-ev0, e.Resumes()-res0
	allocs := after.Mallocs - before.Mallocs
	r := simcoreRun{
		det:  simcoreResult{Name: name, SimSeconds: simTime.Seconds(), Cells: cells, Check: check},
		wall: simcoreWallResult{Name: name, WallSeconds: wall.Seconds(), Events: events, Resumes: resumes, Allocs: allocs},
	}
	if wall > 0 {
		r.wall.EventsPerSec = float64(events) / wall.Seconds()
	}
	if cells > 0 {
		r.wall.NsPerCell = float64(wall.Nanoseconds()) / float64(cells)
		r.wall.ResumesPerCell = float64(resumes) / float64(cells)
		r.wall.AllocsPerCell = float64(allocs) / float64(cells)
	}
	return r, nil
}

// simcoreFig3 measures the Figure 3 receive path: the DEC 3000/600
// double-cell DMA configuration absorbing fictitious UDP/IP traffic —
// the workload whose plateau the paper shows is link-limited, so any
// simulator overhead here directly stretches the wall clock.
func simcoreFig3(cfg Config) (simcoreRun, error) {
	opt := cfg.options(alOptions())
	opt.Board = board.Config{RxDMA: board.DoubleCell}
	tb := core.NewTestbed(opt)
	defer tb.Shutdown()
	return measure("fig3_receive_64k", tb.Eng, func() (time.Duration, int64, map[string]float64, error) {
		mbps, err := tb.RunReceiveThroughput(65536, 32)
		st := tb.B.Board.Stats()
		return time.Duration(tb.Eng.Now()), st.CellsRx, map[string]float64{
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
	cl := core.NewCluster(cfg.options(core.Options{}), w.Clients+1)
	defer cl.Shutdown()
	return measure("fanin_4x8k", cl.Eng, func() (time.Duration, int64, map[string]float64, error) {
		res, err := cl.RunFanIn(w)
		if err != nil {
			return 0, 0, nil, err
		}
		bs := cl.Nodes[0].Board.Stats()
		return time.Duration(cl.Eng.Now()), res.SwitchForwarded + res.SwitchDropped, map[string]float64{
			"delivered":        float64(res.Delivered),
			"aggregate_mbps":   res.AggregateMbps,
			"switch_forwarded": float64(res.SwitchForwarded),
			"switch_dropped":   float64(res.SwitchDropped),
			"fifo_dropped":     float64(bs.CellsDroppedFIFO),
			"pdus_dropped":     float64(bs.PDUsDropped),
		}, nil
	})
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
	report := simcoreReport{Schema: "osiris-simbench/3"}
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
		text += fmt.Sprintf("%-18s %8.0f events/s  %7.0f ns/cell  %5.2f resumes/cell  %6.2f allocs/cell  (sim %v in wall %v)\n",
			w.name, best.wall.EventsPerSec, best.wall.NsPerCell, best.wall.ResumesPerCell, best.wall.AllocsPerCell,
			time.Duration(best.det.SimSeconds*1e9).Round(time.Microsecond),
			time.Duration(best.wall.WallSeconds*1e9).Round(time.Microsecond))
	}
	r, err := newReport(report, wall, text)
	r.value = wall
	return r, err
}

// checkSimcore gates allocations on the switched fan-in hot path and
// proc resumes on every workload.
func checkSimcore(r Report) error {
	for _, w := range r.value.(simcoreWall).Results {
		if w.Name == "fanin_4x8k" && w.AllocsPerCell > allocGate {
			return fmt.Errorf("simcore: %s at %.3f allocs/cell exceeds the %.3f gate", w.Name, w.AllocsPerCell, allocGate)
		}
		if g, ok := resumeGates[w.Name]; ok && w.ResumesPerCell > g {
			return fmt.Errorf("simcore: %s at %.3f proc resumes/cell exceeds the %.3f gate", w.Name, w.ResumesPerCell, g)
		}
	}
	return nil
}
