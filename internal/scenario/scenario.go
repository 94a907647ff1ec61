// Package scenario is the registry of the reproduction's experiments:
// the paper's evaluation (§4: Table 1, Figures 2-4), the design
// ablations, the extension planes (fault sweep, reliable incast,
// multi-tenant scale-out, telemetry snapshots) and the simulator's own
// wall-clock measurements (core cost, worker scaling).
//
// Every scenario runs under one Config and returns a Report whose
// deterministic part is canonical JSON, kept apart from any wall-clock
// measurement. That JSON is a fixed function of the scenario and
// Config.Quick: it is byte-identical at any worker count, fabric mode, telemetry setting and GOMAXPROCS, which TestScenarios
// checks for the whole registry. A scenario's Check holds the gates its
// result must pass. cmd/osiris-bench is a loop over All.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"regexp"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/parexp"
)

// Config is one run's settings. Only Quick and Filter may change a
// report's deterministic JSON.
type Config struct {
	// Quick selects coarser sweeps and fewer messages per point.
	Quick bool
	// Workers sizes the parexp pool that runs a scenario's independent
	// jobs: 0 selects GOMAXPROCS, 1 runs them serially in order.
	Workers int
	// PerCell forces the switch's per-cell fabric instead of train
	// forwarding (core.Options.PerCellFabric).
	PerCell bool
	// Telemetry attaches a fresh metrics registry to every simulated
	// system built from Config (core.Options.Metrics), for checking
	// that the telemetry plane does not perturb results.
	Telemetry bool
	// Filter selects jobs by name; nil selects every job. Job names
	// start with the scenario name, e.g. "fig3/double-cell DMA/65536".
	Filter *regexp.Regexp
}

// Report is one scenario run's outcome.
type Report struct {
	// JSON is the deterministic result, indented, with a trailing
	// newline. It is nil when Config.Filter selected none of the
	// scenario's jobs.
	JSON []byte
	// Wall holds the wall-clock measurements, indented to sit under a
	// top-level "wall" key (see Artifact), or nil.
	Wall []byte
	// Text is the human-readable rendering for stdout. It may include
	// wall-clock figures.
	Text string
	// value is the typed result Check reads.
	value any
}

// Artifact returns the report as its BENCH_*.json file: the
// deterministic JSON with the wall-clock section, if any, appended as a
// last top-level "wall" key.
func (r Report) Artifact() []byte {
	if r.Wall == nil {
		return r.JSON
	}
	var b bytes.Buffer
	b.Write(bytes.TrimSuffix(r.JSON, []byte("\n}\n")))
	b.WriteString(",\n  \"wall\": ")
	b.Write(r.Wall)
	b.WriteString("\n}\n")
	return b.Bytes()
}

// Scenario is one registry entry.
type Scenario struct {
	Name string
	// Artifact is the BENCH_*.json file a full-size run without a
	// filter writes; "" for none.
	Artifact string
	Run      func(Config) (Report, error)
	// Check enforces the scenario's gates on a report of Run; nil when
	// Run's own errors are the only gate. Jobs a filter left out are
	// not checked.
	Check func(Report) error
}

// All returns the registry in run order.
func All() []Scenario {
	return []Scenario{
		{Name: "table1", Artifact: "BENCH_table1.json", Run: table1},
		{Name: "fig2", Artifact: "BENCH_fig2.json", Run: fig2},
		{Name: "fig3", Artifact: "BENCH_fig3.json", Run: fig3},
		{Name: "fig4", Artifact: "BENCH_fig4.json", Run: fig4},
		{Name: "ablations", Artifact: "BENCH_ablations.json", Run: ablations},
		{Name: "faults", Artifact: "BENCH_faults.json", Run: faults, Check: checkFaults},
		{Name: "incast", Artifact: "BENCH_incast.json", Run: incast, Check: checkIncast},
		{Name: "tenants", Artifact: "BENCH_tenants.json", Run: tenants, Check: checkTenants},
		{Name: "metrics", Artifact: "BENCH_metrics.json", Run: metricsSnapshots},
		{Name: "simcore", Artifact: "BENCH_simcore.json", Run: simcore, Check: checkSimcore},
		{Name: "parallel", Artifact: "BENCH_parallel.json", Run: parallel, Check: checkScaling},
	}
}

// options applies the run's system-level settings to a scenario's
// base options. Call it once per simulated system: a metrics registry
// serves one topology.
func (c Config) options(o core.Options) core.Options {
	o.PerCellFabric = c.PerCell
	if c.Telemetry {
		o.Metrics = metrics.New()
	}
	return o
}

// selected applies the filter to a job batch.
func (c Config) selected(jobs []parexp.Job) []parexp.Job {
	if c.Filter == nil {
		return jobs
	}
	var kept []parexp.Job
	for _, j := range jobs {
		if c.Filter.MatchString(j.Name) {
			kept = append(kept, j)
		}
	}
	return kept
}

// run executes the selected jobs on the run's worker pool and returns
// their values by job name; empty when the filter selected none. Any
// failed job fails the scenario.
func (c Config) run(jobs []parexp.Job) (map[string]any, error) {
	return runOn(c.Workers, c.selected(jobs))
}

// runOn executes jobs on a pool of n workers.
func runOn(n int, jobs []parexp.Job) (map[string]any, error) {
	out := make(map[string]any, len(jobs))
	for _, r := range parexp.Run(n, jobs) {
		if r.Err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, r.Err)
		}
		out[r.Name] = r.Value
	}
	return out, nil
}

// newReport marshals a scenario's deterministic result and its
// optional wall-clock section (nil for none).
func newReport(result, wall any, text string) (Report, error) {
	data, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return Report{}, err
	}
	r := Report{JSON: append(data, '\n'), Text: text, value: result}
	if wall != nil {
		if r.Wall, err = json.MarshalIndent(wall, "  ", "  "); err != nil {
			return Report{}, err
		}
	}
	return r, nil
}

// wallHeader records when, with what toolchain, and on how many CPUs a
// wall-clock section was measured.
type wallHeader struct {
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
}

func newWallHeader() wallHeader {
	return wallHeader{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
}

// fingerprint is the sha256 of a deterministic payload, in hex.
func fingerprint(data []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// stateOf fingerprints a simulated system's end state, the values
// formatted with %+v: a short stand-in, in a result, for counters too
// bulky to list.
func stateOf(values ...any) string {
	return fingerprint([]byte(fmt.Sprintf("%+v", values)))[:16]
}
