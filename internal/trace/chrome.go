package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"

	"repro/internal/sim"
)

// Timeline collects typed trace records (sim.TraceEvent) from one or
// more engines and exports them as Chrome trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Each attached engine gets its own lane (a Chrome "process"), and
// each distinct component within a lane gets a named thread track.
// The export merge is canonical — ordered by (time, lane attach order,
// emission index) — so the JSON is byte-identical per seed for
// deterministic configs.
type Timeline struct {
	lanes []*lane
}

type lane struct {
	label string
	evs   []sim.TraceEvent
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

// Attach installs the timeline as eng's typed-trace recorder, under
// the given lane label (e.g. "testbed"). Call before the run starts.
func (tl *Timeline) Attach(eng *sim.Engine, label string) {
	ln := &lane{label: label}
	tl.lanes = append(tl.lanes, ln)
	eng.SetRecorder(func(ev sim.TraceEvent) { ln.evs = append(ln.evs, ev) })
}

// Len reports the total number of recorded events.
func (tl *Timeline) Len() int {
	n := 0
	for _, ln := range tl.lanes {
		n += len(ln.evs)
	}
	return n
}

// merged returns every event with its lane index, in canonical order.
func (tl *Timeline) merged() []laneEvent {
	out := make([]laneEvent, 0, tl.Len())
	for li, ln := range tl.lanes {
		for ei, ev := range ln.evs {
			out = append(out, laneEvent{ev: ev, lane: li, idx: ei})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.ev.At != b.ev.At {
			return a.ev.At < b.ev.At
		}
		if a.lane != b.lane {
			return a.lane < b.lane
		}
		return a.idx < b.idx
	})
	return out
}

type laneEvent struct {
	ev   sim.TraceEvent
	lane int
	idx  int
}

// chromeEvent is one record in the Chrome trace-event format. Ts/Dur
// are microseconds of simulated time.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes the timeline as Chrome trace-event JSON. The
// output is deterministic: canonical event order, first-seen track
// numbering, and sorted JSON object keys (encoding/json sorts map
// keys).
func (tl *Timeline) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)

	type trackKey struct {
		lane int
		comp string
	}
	tids := make(map[trackKey]int)
	merged := tl.merged()

	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ce chromeEvent) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		b, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}

	// Metadata: one process per lane, one named thread per component,
	// numbered in first-appearance order of the canonical merge.
	for _, le := range merged {
		k := trackKey{lane: le.lane, comp: le.ev.Comp}
		if _, ok := tids[k]; ok {
			continue
		}
		tid := len(tids)
		tids[k] = tid
		if err := emit(chromeEvent{
			Name: "thread_name", Ph: "M", Pid: le.lane, Tid: tid,
			Args: map[string]any{"name": le.ev.Comp},
		}); err != nil {
			return err
		}
	}
	for li, ln := range tl.lanes {
		if err := emit(chromeEvent{
			Name: "process_name", Ph: "M", Pid: li, Tid: 0,
			Args: map[string]any{"name": ln.label},
		}); err != nil {
			return err
		}
	}

	for _, le := range merged {
		ev := le.ev
		ce := chromeEvent{
			Name: ev.Name,
			Cat:  ev.Cat,
			Ph:   string(ev.Ph),
			Ts:   ev.At.Microseconds(),
			Pid:  le.lane,
			Tid:  tids[trackKey{lane: le.lane, comp: ev.Comp}],
		}
		switch ev.Ph {
		case 'X':
			d := ev.Dur.Microseconds()
			ce.Dur = &d
		case 'C':
			ce.Args = map[string]any{"value": ev.Arg}
		default: // instants carry their argument when nonzero
			if ev.Arg != 0 {
				ce.Args = map[string]any{"value": ev.Arg}
			}
		}
		if err := emit(ce); err != nil {
			return err
		}
	}

	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
