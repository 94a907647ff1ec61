package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/hostsim"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
)

// textSample fills a two-lane timeline with one event of each phase
// and returns its WriteText renderer and the fully rendered lines in
// canonical merge order: time first, then lane attach order, with 'X'
// spans sorted by their start and carrying their duration.
func textSample(t *testing.T) (render func(cats []string, limit int) string, lines []string) {
	t.Helper()
	tl := NewTimeline()
	emitSample(tl)
	e := sim.NewEngine(1)
	tl.Attach(e, "host1")
	e.At(1000, func() {
		e.Emit(sim.TraceEvent{At: e.Now(), Ph: 'i', Comp: "sw-port1", Cat: sim.CatDrop, Name: "queue-overflow", Arg: 7})
	})
	e.Run()
	render = func(cats []string, limit int) string {
		var buf bytes.Buffer
		if err := tl.WriteText(&buf, cats, limit); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	lines = []string{
		"       1.000µs [irq  ] board rx-irq 0\n",
		"       1.000µs [q    ] port0 depth 3\n",
		"       1.000µs [drop ] sw-port1 queue-overflow 7\n",
		"       2.000µs [pdu  ] board reasm 9180 dur=3.000µs\n",
	}
	return render, lines
}

func TestRecorderFilter(t *testing.T) {
	// The text view's category filter: names are trimmed, empty keeps
	// everything, and a filter matching nothing renders nothing.
	render, lines := textSample(t)
	for _, c := range []struct {
		name string
		cats []string
		want []string
	}{
		{"all", nil, lines},
		{"category filter", []string{"drop", " pdu"}, lines[2:]},
		{"no match", []string{"cell"}, nil},
	} {
		if got, want := render(c.cats, 0), strings.Join(c.want, ""); got != want {
			t.Errorf("%s:\n%s\nwant:\n%s", c.name, got, want)
		}
	}
}

func TestRecorderRingBuffer(t *testing.T) {
	// limit keeps the last N events, applied after the category filter.
	tl := NewTimeline()
	e := sim.NewEngine(1)
	tl.Attach(e, "main")
	for i := 0; i < 10; i++ {
		e.At(sim.Time(i*1000), func() {
			e.Emit(sim.TraceEvent{At: e.Now(), Ph: 'i', Comp: "b", Cat: sim.CatPDU, Name: "n", Arg: int64(i)})
		})
	}
	e.Run()
	var buf bytes.Buffer
	if err := tl.WriteText(&buf, nil, 4); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(got) != 4 {
		t.Fatalf("retained %d lines, want 4:\n%s", len(got), buf.String())
	}
	// Oldest retained is event 6.
	if !strings.HasSuffix(got[0], " n 6") || !strings.HasSuffix(got[3], " n 9") {
		t.Errorf("last-N window wrong: %q..%q", got[0], got[3])
	}

	render, lines := textSample(t)
	for _, c := range []struct {
		name  string
		cats  []string
		limit int
		want  []string
	}{
		{"last-N limit", nil, 1, lines[3:]},
		{"filter then limit", []string{"irq", "q", "drop"}, 2, lines[1:3]},
	} {
		if got, want := render(c.cats, c.limit), strings.Join(c.want, ""); got != want {
			t.Errorf("%s:\n%s\nwant:\n%s", c.name, got, want)
		}
	}
}

func TestRecorderDumpAndCounts(t *testing.T) {
	// The full text render, line for line (including the 'X' span's
	// duration), and the per-category counts it carries.
	render, lines := textSample(t)
	out := render(nil, 0)
	if want := strings.Join(lines, ""); out != want {
		t.Fatalf("render:\n%s\nwant:\n%s", out, want)
	}
	counts := make(map[string]int)
	for _, l := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		i, j := strings.IndexByte(l, '['), strings.IndexByte(l, ']')
		counts[strings.TrimSpace(l[i+1:j])]++
	}
	want := map[string]int{sim.CatIRQ: 1, sim.CatQueue: 1, sim.CatDrop: 1, sim.CatPDU: 1}
	if len(counts) != len(want) {
		t.Errorf("counts = %v, want %v", counts, want)
	}
	for c, n := range want {
		if counts[c] != n {
			t.Errorf("counts[%s] = %d, want %d", c, counts[c], n)
		}
	}
}

func TestEndToEndTraceCapture(t *testing.T) {
	// Attach a timeline to a real transfer and verify the instrumented
	// components produced the expected categories.
	tb := core.NewTestbed(core.Options{
		Profile: hostsim.DEC3000_600(),
		Driver:  driver.Config{Cache: driver.CacheNone},
	})
	defer tb.Shutdown()
	tl := NewTimeline()
	tl.Attach(tb.Eng, "testbed")

	tx, err := tb.A.Raw.Open(proto.RawOpen{VCI: 44})
	if err != nil {
		t.Fatal(err)
	}
	rx, err := tb.B.Raw.Open(proto.RawOpen{VCI: 44})
	if err != nil {
		t.Fatal(err)
	}
	got := false
	rx.SetHandler(func(p *sim.Proc, m *msg.Message) { got = true })
	tb.Eng.Go("send", func(p *sim.Proc) {
		m, _ := msg.FromBytes(tb.A.Host.Kernel, make([]byte, 3000))
		tx.Push(p, m)
		tb.A.Drv.Flush(p)
	})
	tb.Eng.RunUntil(tb.Eng.Now().Add(50 * time.Millisecond))
	if !got {
		t.Fatal("message lost")
	}
	counts := make(map[string]int)
	for _, le := range tl.merged() {
		counts[le.ev.Cat]++
	}
	if counts[sim.CatCell] != int(atm.CellsFor(3000)) {
		t.Errorf("cell events = %d, want %d", counts[sim.CatCell], atm.CellsFor(3000))
	}
	if counts[sim.CatPDU] < 3 { // tx start + reassembly span + driver deliver
		t.Errorf("pdu events = %d", counts[sim.CatPDU])
	}
	if counts[sim.CatIRQ] != 1 {
		t.Errorf("irq events = %d, want 1", counts[sim.CatIRQ])
	}
}

func TestTracingDisabledIsFree(t *testing.T) {
	// Without a recorder, Recording() gates every instrumented site and
	// an emission costs nothing.
	e := sim.NewEngine(1)
	if e.Recording() {
		t.Error("fresh engine claims recording")
	}
	ev := sim.TraceEvent{Ph: 'i', Comp: "b-tx", Cat: sim.CatCell, Name: "cell-tx", Arg: 5}
	if allocs := testing.AllocsPerRun(100, func() { e.Emit(ev) }); allocs != 0 {
		t.Errorf("Emit with no recorder allocated %.1f, want 0", allocs)
	}
	NewTimeline().Attach(e, "main")
	if !e.Recording() {
		t.Error("timeline attached but Recording() false")
	}
	e.SetRecorder(nil)
	if e.Recording() {
		t.Error("recorder cleared but Recording() true")
	}
}
