package main

import (
	"fmt"
	"math"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/hostsim"
)

// pointKind is the apparatus a published reference point comes from.
type pointKind int

const (
	rttPoint pointKind = iota // Table 1 ping-pong, closed loop
	rxPoint                   // Figures 2/3, fictitious-PDU receive, open loop at line rate
	txPoint                   // Figure 4, isolated transmit
)

// paperPoint is one of the paper's 25 published numbers together with
// the testbed configuration that regenerates it.
type paperPoint struct {
	name  string
	kind  pointKind
	opt   core.Options
	proto core.ProtoKind // rttPoint only
	size  int            // message bytes
	paper float64        // µs for rttPoint, Mbps otherwise
}

// figSize is the message size of the figures' published plateaus.
const figSize = 64 * 1024

func ds5000() core.Options {
	return core.Options{Profile: hostsim.DEC5000_200(), Driver: driver.Config{Cache: driver.CacheLazy}}
}

func al3000() core.Options {
	return core.Options{Profile: hostsim.DEC3000_600(), Driver: driver.Config{Cache: driver.CacheNone}}
}

// paperPoints returns the reference table: Table 1's 16 round-trip
// times, then the 9 published 64 KB plateaus of Figures 2–4.
func paperPoints() []paperPoint {
	var pts []paperPoint
	table1 := []struct {
		row   string
		opt   core.Options
		proto core.ProtoKind
		rtts  [4]float64 // at 1, 1024, 2048, 4096 bytes
	}{
		{"DEC5000/200/ATM", ds5000(), core.ATMRaw, [4]float64{353, 417, 486, 778}},
		{"DEC5000/200/UDP-IP", ds5000(), core.UDPIP, [4]float64{598, 659, 725, 1011}},
		{"DEC3000/600/ATM", al3000(), core.ATMRaw, [4]float64{154, 215, 283, 449}},
		{"DEC3000/600/UDP-IP", al3000(), core.UDPIP, [4]float64{316, 376, 446, 619}},
	}
	for _, row := range table1 {
		for i, size := range []int{1, 1024, 2048, 4096} {
			pts = append(pts, paperPoint{
				name:  fmt.Sprintf("table1/%s/%d", row.row, size),
				kind:  rttPoint,
				opt:   row.opt,
				proto: row.proto,
				size:  size,
				paper: row.rtts[i],
			})
		}
	}

	with := func(o core.Options, f func(*core.Options)) core.Options { f(&o); return o }
	double := func(o *core.Options) { o.Board = board.Config{RxDMA: board.DoubleCell} }
	checksum := func(o *core.Options) { o.Checksum = true }
	eager := func(o *core.Options) { o.Driver = driver.Config{Cache: driver.CacheEager} }
	figs := []struct {
		name  string
		kind  pointKind
		opt   core.Options
		paper float64
	}{
		{"fig2/double-cell", rxPoint, with(ds5000(), double), 379},
		{"fig2/single-cell", rxPoint, ds5000(), 340},
		{"fig2/single-cell-invalidated", rxPoint, with(ds5000(), eager), 250},
		{"fig2/single-cell-udpcs", rxPoint, with(ds5000(), checksum), 80},
		{"fig3/double-cell", rxPoint, with(al3000(), double), 516},
		{"fig3/double-cell-udpcs", rxPoint, with(with(al3000(), double), checksum), 438},
		{"fig3/single-cell", rxPoint, al3000(), 460},
		{"fig4/3000-600", txPoint, with(al3000(), func(o *core.Options) { o.TxIsolated = true }), 325},
		{"fig4/5000-200", txPoint, with(ds5000(), func(o *core.Options) { o.TxIsolated = true }), 280},
	}
	for _, f := range figs {
		pts = append(pts, paperPoint{name: f.name + "/65536", kind: f.kind, opt: f.opt, size: figSize, paper: f.paper})
	}
	return pts
}

// errPct is the absolute error of sim against paper, in percent of paper.
func errPct(sim, paper float64) float64 { return 100 * math.Abs(sim-paper) / paper }
