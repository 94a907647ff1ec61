package scenario

import (
	"fmt"

	"repro/internal/parexp"
)

// scalingReport is the schema of BENCH_parallel.json: one workload
// measured at several counts of one dimension. Fingerprint hashes the
// workload's simulated outcome; Invariant records whether every
// measured count reproduced it.
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
	WallSeconds float64 `json:"wall_seconds"`
	Speedup     float64 `json:"speedup"`
	Efficiency  float64 `json:"efficiency"`
}

type scalingWall struct {
	wallHeader
	Points []scalingPoint `json:"points"`
}

// scalingRun is one worker count's outcome: the fingerprint of the
// fig3 scenario's deterministic JSON.
type scalingRun struct {
	count       int
	fingerprint string
}

// parallel measures the parexp runner's scaling over the Figure 3
// sweep, the real evaluation workload: the fig3 scenario at each worker
// count (jobs named parallel/workers=<n>), run one count at a time,
// timing each run and requiring every fingerprint to match the first.
func parallel(cfg Config) (Report, error) {
	counts := []int{1, 2, 4, 8}
	if cfg.Quick {
		counts = []int{1, 4}
	}
	var jobs []parexp.Job
	for _, n := range counts {
		n := n
		jobs = append(jobs, parexp.Job{
			Name: fmt.Sprintf("parallel/workers=%d", n),
			Run: func() (any, error) {
				c := cfg
				c.Workers, c.Filter = n, nil
				r, err := fig3(c)
				return scalingRun{count: n, fingerprint: fingerprint(r.JSON)}, err
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
	report := scalingReport{Schema: "osiris-scaling/1", Workload: "fig3 receive sweep", Dimension: "workers", Invariant: true}
	wall := scalingWall{wallHeader: newWallHeader()}
	text := "== workers scaling (fig3 receive sweep) ==\n"
	for i, r := range results {
		sr := r.Value.(scalingRun)
		n := sr.count
		report.Counts = append(report.Counts, n)
		if i == 0 {
			report.Fingerprint = sr.fingerprint
		} else if sr.fingerprint != report.Fingerprint {
			report.Invariant = false
			text += fmt.Sprintf("DETERMINISM VIOLATION at workers=%d: %.12s… != %.12s…\n", n, sr.fingerprint, report.Fingerprint)
		}
		pt := scalingPoint{Count: n, WallSeconds: r.Wall.Seconds()}
		pt.Speedup = results[0].Wall.Seconds() / pt.WallSeconds
		pt.Efficiency = pt.Speedup / float64(n)
		wall.Points = append(wall.Points, pt)
		text += fmt.Sprintf("workers=%-2d  wall %7.3fs  speedup %5.2fx  efficiency %4.0f%%\n",
			n, pt.WallSeconds, pt.Speedup, pt.Efficiency*100)
	}
	if report.Invariant {
		text += fmt.Sprintf("results byte-identical across workers counts (fingerprint %.12s…)\n", report.Fingerprint)
	}
	return newReport(report, wall, text)
}

// checkScaling is the parallel scenario's gate: every measured count
// reproduced the same simulated outcome.
func checkScaling(r Report) error {
	if rep := r.value.(scalingReport); !rep.Invariant {
		return fmt.Errorf("%s scaling: results differ across counts", rep.Dimension)
	}
	return nil
}
