// Package stats provides measurement helpers and text renderers for the
// reproduction's tables and figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Mbps converts a byte count over a duration to megabits per second.
func Mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / d.Seconds() / 1e6
}

// Series is one curve of a figure.
type Series struct {
	Name string
	X    []float64 // message size in bytes
	Y    []float64 // Mbps (or µs for latency series)
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Table is a simple text table.
type Table struct {
	Title string
	Cols  []string
	Rows  [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render lays the table out with aligned columns.
func (t *Table) Render() string {
	width := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		width[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Cols)
	total := len(t.Cols)*2 - 2
	for _, w := range width {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// RenderFigure draws an ASCII chart of the series (log2 x-axis, linear
// y), followed by the exact values — the paper's figures as text.
func RenderFigure(title, xlabel, ylabel string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	const w, h = 64, 16
	// Bounds.
	minX, maxX := math.Inf(1), math.Inf(-1)
	maxY := 0.0
	for _, s := range series {
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if math.IsInf(minX, 1) || maxY == 0 {
		return title + " (no data)\n"
	}
	lx := func(x float64) float64 { return math.Log2(math.Max(x, 1)) }
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	marks := []byte("*+xo#@")
	for si, s := range series {
		mark := marks[si%len(marks)]
		for i := range s.X {
			fx := 0.0
			if lx(maxX) > lx(minX) {
				fx = (lx(s.X[i]) - lx(minX)) / (lx(maxX) - lx(minX))
			}
			fy := s.Y[i] / maxY
			col := int(fx * float64(w-1))
			row := h - 1 - int(fy*float64(h-1))
			if row >= 0 && row < h && col >= 0 && col < w {
				grid[row][col] = mark
			}
		}
	}
	fmt.Fprintf(&b, "%8.0f |%s\n", maxY, string(grid[0]))
	for i := 1; i < h; i++ {
		fmt.Fprintf(&b, "%8s |%s\n", "", string(grid[i]))
	}
	fmt.Fprintf(&b, "%8s +%s\n", "0", strings.Repeat("-", w))
	fmt.Fprintf(&b, "%8s  %-10.0f%*s\n", "", minX, w-10, fmt.Sprintf("%.0f", maxX))
	fmt.Fprintf(&b, "          x: %s   y: %s\n", xlabel, ylabel)
	for si, s := range series {
		fmt.Fprintf(&b, "  [%c] %s\n", marks[si%len(marks)], s.Name)
	}
	// Exact values.
	cols := []string{xlabel}
	for _, s := range series {
		cols = append(cols, s.Name)
	}
	tab := Table{Cols: cols}
	xs := map[float64]bool{}
	for _, s := range series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	var sorted []float64
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	for _, x := range sorted {
		row := []string{fmt.Sprintf("%.0f", x)}
		for _, s := range series {
			val := ""
			for i := range s.X {
				if s.X[i] == x {
					val = fmt.Sprintf("%.1f", s.Y[i])
				}
			}
			row = append(row, val)
		}
		tab.AddRow(row...)
	}
	b.WriteString(tab.Render())
	return b.String()
}

// NodeAgg accumulates one node's deliveries: message and byte counts
// bracketed by the first and last delivery times (simulation time as an
// offset from the run's origin).
type NodeAgg struct {
	Node     int
	Messages int
	Bytes    int64
	First    time.Duration
	Last     time.Duration
}

// Mbps is the node's delivered throughput over its own first-to-last
// window.
func (a NodeAgg) Mbps() float64 { return Mbps(a.Bytes, a.Last-a.First) }

// PerNode aggregates deliveries by node — the per-client view of a
// fan-in experiment's server.
type PerNode struct {
	nodes map[int]*NodeAgg
}

// NewPerNode creates an empty aggregator.
func NewPerNode() *PerNode { return &PerNode{nodes: make(map[int]*NodeAgg)} }

// Observe records one delivery of the given size attributed to node at
// the given simulation time.
func (p *PerNode) Observe(node, bytes int, at time.Duration) {
	a, ok := p.nodes[node]
	if !ok {
		a = &NodeAgg{Node: node, First: at}
		p.nodes[node] = a
	}
	if a.Messages == 0 || at < a.First {
		a.First = at
	}
	if at > a.Last {
		a.Last = at
	}
	a.Messages++
	a.Bytes += int64(bytes)
}

// Node returns node's aggregate (zero-valued if it never delivered).
func (p *PerNode) Node(node int) NodeAgg {
	if a, ok := p.nodes[node]; ok {
		return *a
	}
	return NodeAgg{Node: node}
}

// Aggregate folds all nodes into one NodeAgg (Node = -1) whose window
// spans the earliest First to the latest Last.
func (p *PerNode) Aggregate() NodeAgg {
	agg := NodeAgg{Node: -1}
	first := true
	for _, a := range p.nodes {
		agg.Messages += a.Messages
		agg.Bytes += a.Bytes
		if first || a.First < agg.First {
			agg.First = a.First
		}
		if a.Last > agg.Last {
			agg.Last = a.Last
		}
		first = false
	}
	return agg
}
