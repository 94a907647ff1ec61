package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

func emitSample(tl *Timeline) *sim.Engine {
	e := sim.NewEngine(1)
	tl.Attach(e, "host0")
	e.At(1000, func() {
		e.Emit(sim.TraceEvent{At: e.Now(), Ph: 'i', Comp: "board", Cat: sim.CatIRQ, Name: "rx-irq"})
		e.Emit(sim.TraceEvent{At: e.Now(), Ph: 'C', Comp: "port0", Cat: sim.CatQueue, Name: "depth", Arg: 3})
	})
	e.At(5000, func() {
		e.Emit(sim.TraceEvent{At: 2000, Dur: 3000, Ph: 'X', Comp: "board", Cat: sim.CatPDU, Name: "reasm", Arg: 9180})
	})
	e.Run()
	return e
}

func TestTimelineChromeExport(t *testing.T) {
	tl := NewTimeline()
	emitSample(tl)
	if tl.Len() != 3 {
		t.Fatalf("timeline recorded %d events, want 3", tl.Len())
	}

	var buf bytes.Buffer
	if err := tl.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}

	var spans, instants, counters, meta int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			if ev.Name != "reasm" || ev.Ts != 2 || ev.Dur != 3 {
				t.Errorf("span = %+v, want reasm ts=2µs dur=3µs", ev)
			}
		case "i":
			instants++
		case "C":
			counters++
			if ev.Args["value"] != float64(3) {
				t.Errorf("counter args = %v", ev.Args)
			}
		case "M":
			meta++
		}
	}
	if spans != 1 || instants != 1 || counters != 1 {
		t.Errorf("spans/instants/counters = %d/%d/%d, want 1/1/1", spans, instants, counters)
	}
	if meta < 3 { // two thread_name tracks + one process_name
		t.Errorf("metadata records = %d, want >= 3", meta)
	}
	if !strings.Contains(buf.String(), `"name":"host0"`) {
		t.Errorf("lane label missing from process_name metadata")
	}
}

func TestTimelineExportDeterministic(t *testing.T) {
	render := func() string {
		tl := NewTimeline()
		emitSample(tl)
		var buf bytes.Buffer
		if err := tl.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("chrome export not deterministic:\n%s\n---\n%s", a, b)
	}
}
