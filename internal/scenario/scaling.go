package scenario

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/parexp"
	"repro/internal/workload"
)

// scalingReport is the schema of BENCH_parallel.json and
// BENCH_shards.json: one workload measured at several counts of one
// dimension. Fingerprint hashes the workload's simulated outcome;
// Invariant records whether every measured count reproduced it.
type scalingReport struct {
	Schema      string `json:"schema"`
	Workload    string `json:"workload"`
	Dimension   string `json:"dimension"`
	Counts      []int  `json:"counts"`
	Fingerprint string `json:"fingerprint"`
	Invariant   bool   `json:"invariant"`
}

// scalingPoint is one count's wall-clock measurement. Speedup and
// efficiency are relative to the first count and bounded by
// min(count, GOMAXPROCS), which is why the section records num_cpu and
// gomaxprocs.
type scalingPoint struct {
	Count       int     `json:"count"`
	Effective   int     `json:"effective,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
	Events      uint64  `json:"events,omitempty"`
	Speedup     float64 `json:"speedup"`
	Efficiency  float64 `json:"efficiency"`
}

type scalingWall struct {
	wallHeader
	Points []scalingPoint `json:"points"`
}

// scalingRun is one count's outcome: the fingerprint of the simulated
// result, plus the executed events and effective count where the
// dimension has them.
type scalingRun struct {
	count       int
	fingerprint string
	events      uint64
	effective   int
}

// sweep measures one workload at each count of a dimension, one count
// at a time (jobs named <name>/<dimension>=<n>), timing each run and
// requiring every fingerprint to match the first.
func sweep(cfg Config, name, dimension, workload string, counts []int, run func(n int) (scalingRun, error)) (Report, error) {
	var jobs []parexp.Job
	for _, n := range counts {
		n := n
		jobs = append(jobs, parexp.Job{
			Name: fmt.Sprintf("%s/%s=%d", name, dimension, n),
			Run: func() (any, error) {
				sr, err := run(n)
				sr.count = n
				return sr, err
			},
		})
	}
	jobs = cfg.selected(jobs)
	if len(jobs) == 0 {
		return Report{}, nil
	}
	results := parexp.Run(1, jobs)
	if err := parexp.FirstErr(results); err != nil {
		return Report{}, err
	}
	report := scalingReport{Schema: "osiris-scaling/1", Workload: workload, Dimension: dimension, Invariant: true}
	wall := scalingWall{wallHeader: newWallHeader()}
	text := fmt.Sprintf("== %s scaling (%s) ==\n", dimension, workload)
	for i, r := range results {
		sr := r.Value.(scalingRun)
		n := sr.count
		report.Counts = append(report.Counts, n)
		if i == 0 {
			report.Fingerprint = sr.fingerprint
		} else if sr.fingerprint != report.Fingerprint {
			report.Invariant = false
			text += fmt.Sprintf("DETERMINISM VIOLATION at %s=%d: %.12s… != %.12s…\n", dimension, n, sr.fingerprint, report.Fingerprint)
		}
		pt := scalingPoint{Count: n, Effective: sr.effective, WallSeconds: r.Wall.Seconds(), Events: sr.events}
		pt.Speedup = results[0].Wall.Seconds() / pt.WallSeconds
		pt.Efficiency = pt.Speedup / float64(n)
		wall.Points = append(wall.Points, pt)
		text += fmt.Sprintf("%s=%-2d  wall %7.3fs  speedup %5.2fx  efficiency %4.0f%%\n",
			dimension, n, pt.WallSeconds, pt.Speedup, pt.Efficiency*100)
	}
	if report.Invariant {
		text += fmt.Sprintf("results byte-identical across %s counts (fingerprint %.12s…)\n", dimension, report.Fingerprint)
	}
	return newReport(report, wall, text)
}

// parallel measures the parexp runner's scaling over the Figure 3
// sweep, the real evaluation workload: the fig3 scenario at each worker
// count, fingerprinted by its deterministic JSON.
func parallel(cfg Config) (Report, error) {
	counts := []int{1, 2, 4, 8}
	if cfg.Quick {
		counts = []int{1, 4}
	}
	return sweep(cfg, "parallel", "workers", "fig3 receive sweep", counts, func(n int) (scalingRun, error) {
		c := cfg
		c.Workers, c.Filter = n, nil
		r, err := fig3(c)
		return scalingRun{fingerprint: fingerprint(r.JSON)}, err
	})
}

// shards measures the sharded engine's scaling on one switched fan-in
// incast — 7 clients at one server through the cell fabric, the
// topology with the most shard boundaries to cross. The fingerprint
// covers the full result and the final virtual clock, and leaves out
// the event count: a shard with an empty local queue skips wakeups a
// serial engine executes.
func shards(cfg Config) (Report, error) {
	w := workload.FanIn{Clients: 7, MessageBytes: 8192, Messages: 30, Gap: time.Millisecond, Stagger: 250 * time.Microsecond}
	if cfg.Quick {
		w.Messages = 8
	}
	desc := fmt.Sprintf("fanin %dx%d switched incast, %d msgs/client", w.Clients, w.MessageBytes, w.Messages)
	return sweep(cfg, "shards", "shards", desc, []int{1, 2, 4, 8}, func(n int) (scalingRun, error) {
		opt := cfg.options(core.Options{})
		opt.Shards = n
		cl := core.NewCluster(opt, w.Clients+1)
		defer cl.Shutdown()
		res, err := cl.RunFanIn(w)
		if err != nil {
			return scalingRun{}, err
		}
		fp := fingerprint([]byte(fmt.Sprintf("%+v|%v\n", res, cl.Now())))
		return scalingRun{fingerprint: fp, events: cl.Events(), effective: cl.Plan().Shards}, nil
	})
}

// checkScaling is the scaling scenarios' gate: every measured count
// reproduced the same simulated outcome.
func checkScaling(r Report) error {
	if rep := r.value.(scalingReport); !rep.Invariant {
		return fmt.Errorf("%s scaling: results differ across counts", rep.Dimension)
	}
	return nil
}
