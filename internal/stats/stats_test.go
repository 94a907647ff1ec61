package stats

import (
	"strings"
	"testing"
	"time"
)

func TestMbps(t *testing.T) {
	if got := Mbps(1_000_000, time.Second); got != 8 {
		t.Errorf("Mbps = %f", got)
	}
	if got := Mbps(16384, 254*time.Microsecond); got < 515 || got > 517 {
		t.Errorf("16KB/254µs = %f, want ≈516", got)
	}
	if Mbps(100, 0) != 0 {
		t.Error("zero duration not handled")
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{Title: "T", Cols: []string{"a", "bbbb"}}
	tab.AddRow("x", "1")
	tab.AddRow("yyyy", "22")
	out := tab.Render()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "yyyy") {
		t.Errorf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
}

func TestRenderFigure(t *testing.T) {
	var s Series
	s.Name = "curve"
	for _, x := range []float64{1024, 2048, 4096, 8192} {
		s.Add(x, x/100)
	}
	out := RenderFigure("Fig", "bytes", "Mbps", []Series{s})
	for _, want := range []string{"Fig", "curve", "bytes", "Mbps", "1024", "8192"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure missing %q:\n%s", want, out)
		}
	}
}

func TestRenderFigureEmpty(t *testing.T) {
	out := RenderFigure("Empty", "x", "y", nil)
	if !strings.Contains(out, "no data") {
		t.Errorf("empty figure: %q", out)
	}
}

func TestRenderFigureMultiSeries(t *testing.T) {
	a := Series{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}}
	b := Series{Name: "b", X: []float64{1, 2}, Y: []float64{5, 15}}
	out := RenderFigure("F", "x", "y", []Series{a, b})
	if !strings.Contains(out, "[*] a") || !strings.Contains(out, "[+] b") {
		t.Errorf("legend missing:\n%s", out)
	}
}

func TestPerNodeAggregation(t *testing.T) {
	p := NewPerNode()
	p.Observe(0, 1000, 1*time.Millisecond)
	p.Observe(0, 1000, 2*time.Millisecond)
	p.Observe(1, 500, 3*time.Millisecond)
	a := p.Node(0)
	if a.Messages != 2 || a.Bytes != 2000 || a.First != time.Millisecond || a.Last != 2*time.Millisecond {
		t.Errorf("node 0 agg = %+v", a)
	}
	// 2000 bytes over 1 ms = 16 Mbps.
	if a.Mbps() < 15.9 || a.Mbps() > 16.1 {
		t.Errorf("node 0 Mbps = %f", a.Mbps())
	}
	if missing := p.Node(9); missing.Messages != 0 || missing.Node != 9 {
		t.Errorf("absent node agg = %+v", missing)
	}
	agg := p.Aggregate()
	if agg.Node != -1 || agg.Messages != 3 || agg.Bytes != 2500 {
		t.Errorf("aggregate = %+v", agg)
	}
	if agg.First != time.Millisecond || agg.Last != 3*time.Millisecond {
		t.Errorf("aggregate window = %v..%v", agg.First, agg.Last)
	}
}

func TestPerNodeEmpty(t *testing.T) {
	p := NewPerNode()
	if a := p.Node(0); a.Messages != 0 || a.Bytes != 0 {
		t.Error("empty aggregator has node data")
	}
	agg := p.Aggregate()
	if agg.Messages != 0 || agg.Mbps() != 0 {
		t.Errorf("empty aggregate = %+v", agg)
	}
}
