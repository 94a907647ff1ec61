package scenario

import (
	"fmt"
	"time"

	"repro/internal/board"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/hostsim"
	"repro/internal/parexp"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/workload"
)

// dsOptions and alOptions are the two machine profiles of §4.
func dsOptions() core.Options {
	return core.Options{Profile: hostsim.DEC5000_200(), Driver: driver.Config{Cache: driver.CacheLazy}}
}

func alOptions() core.Options {
	return core.Options{Profile: hostsim.DEC3000_600(), Driver: driver.Config{Cache: driver.CacheNone}}
}

func (c Config) rounds() int {
	if c.Quick {
		return 2
	}
	return 5
}

func (c Config) msgs() int {
	if c.Quick {
		return 6
	}
	return 12
}

func (c Config) sweepSizes() []int {
	if c.Quick {
		return []int{1024, 8192, 65536, 262144}
	}
	return workload.FigureSizes()
}

// latencyPoint is one Table 1 cell. State fingerprints the final
// virtual clock and both directions' link counters.
type latencyPoint struct {
	Machine  string  `json:"machine"`
	Protocol string  `json:"protocol"`
	Size     int     `json:"size"`
	PaperUS  float64 `json:"paper_us"`
	RTTNS    int64   `json:"rtt_ns"`
	State    string  `json:"state"`
}

// table1 regenerates Table 1: round-trip latencies on both machines,
// raw ATM and UDP/IP, four message sizes.
func table1(cfg Config) (Report, error) {
	paper := map[string]map[int]float64{
		"DEC5000/200 ATM":    {1: 353, 1024: 417, 2048: 486, 4096: 778},
		"DEC5000/200 UDP/IP": {1: 598, 1024: 659, 2048: 725, 4096: 1011},
		"DEC3000/600 ATM":    {1: 154, 1024: 215, 2048: 283, 4096: 449},
		"DEC3000/600 UDP/IP": {1: 316, 1024: 376, 2048: 446, 4096: 619},
	}
	type row struct {
		opt  core.Options
		kind core.ProtoKind
	}
	rows := []row{{dsOptions(), core.ATMRaw}, {dsOptions(), core.UDPIP}, {alOptions(), core.ATMRaw}, {alOptions(), core.UDPIP}}
	var jobs []parexp.Job
	for _, r := range rows {
		for _, size := range workload.Table1Sizes() {
			r, size := r, size
			jobs = append(jobs, parexp.Job{
				Name: fmt.Sprintf("table1/%s/%s/%d", r.opt.Profile.Name, r.kind, size),
				Cost: float64(size),
				Run: func() (any, error) {
					tb := core.NewTestbed(cfg.options(r.opt))
					defer tb.Shutdown()
					rtt, err := tb.RunLatency(r.kind, size, cfg.rounds())
					if err != nil {
						return nil, err
					}
					return latencyPoint{
						Machine:  r.opt.Profile.Name,
						Protocol: r.kind.String(),
						Size:     size,
						PaperUS:  paper[r.opt.Profile.Name+" "+r.kind.String()][size],
						RTTNS:    rtt.Nanoseconds(),
						State:    stateOf(tb.Eng.Now(), tb.AB.Stats(), tb.BA.Stats()),
					}, nil
				},
			})
		}
	}
	vals, err := cfg.run(jobs)
	if err != nil || len(vals) == 0 {
		return Report{}, err
	}
	var result struct {
		Points []latencyPoint `json:"points"`
	}
	tab := stats.Table{Cols: []string{"machine", "protocol", "size", "paper µs", "sim µs", "ratio"}}
	for _, j := range jobs {
		v, ok := vals[j.Name]
		if !ok {
			continue
		}
		pt := v.(latencyPoint)
		result.Points = append(result.Points, pt)
		got := time.Duration(pt.RTTNS).Seconds() * 1e6
		tab.AddRow(pt.Machine, pt.Protocol, fmt.Sprint(pt.Size),
			fmt.Sprintf("%.0f", pt.PaperUS), fmt.Sprintf("%.0f", got), fmt.Sprintf("%.2f", got/pt.PaperUS))
	}
	return newReport(result, nil, "== Table 1: Round-Trip Latencies (µs) ==\n"+tab.Render()+"\n")
}

// curve is one series of a throughput figure.
type curve struct {
	name string
	opt  core.Options
}

// throughputPoint is one figure point. State fingerprints the
// measured host's board counters (receive side) or the sink's counters
// (transmit side), with the final virtual clock.
type throughputPoint struct {
	Curve string  `json:"curve"`
	Size  int     `json:"size"`
	Mbps  float64 `json:"mbps"`
	State string  `json:"state"`
}

// figure runs one job per (curve, size) point, named <fig>/<curve>/<size>,
// and renders the curves. transmit selects the Figure 4 apparatus.
func figure(cfg Config, fig, title, plotTitle, note string, curves []curve, transmit bool) (Report, error) {
	sizes := cfg.sweepSizes()
	var jobs []parexp.Job
	for _, c := range curves {
		for _, size := range sizes {
			c, size := c, size
			jobs = append(jobs, parexp.Job{
				Name: fmt.Sprintf("%s/%s/%d", fig, c.name, size),
				// Sizes serve as cost hints so the pool starts the big
				// points first.
				Cost: float64(size),
				Run: func() (any, error) {
					opt := cfg.options(c.opt)
					opt.TxIsolated = transmit
					tb := core.NewTestbed(opt)
					defer tb.Shutdown()
					pt := throughputPoint{Curve: c.name, Size: size}
					var err error
					if transmit {
						pt.Mbps, err = tb.RunTransmitThroughput(size, cfg.msgs())
						cells, bytes := tb.SinkStats()
						pt.State = stateOf(tb.Eng.Now(), cells, bytes)
					} else {
						pt.Mbps, err = tb.RunReceiveThroughput(size, cfg.msgs())
						pt.State = stateOf(tb.Eng.Now(), tb.B.Board.Stats())
					}
					return pt, err
				},
			})
		}
	}
	vals, err := cfg.run(jobs)
	if err != nil || len(vals) == 0 {
		return Report{}, err
	}
	var result struct {
		Points []throughputPoint `json:"points"`
	}
	var series []stats.Series
	for i, c := range curves {
		s := stats.Series{Name: c.name}
		for j := range sizes {
			v, ok := vals[jobs[i*len(sizes)+j].Name]
			if !ok {
				continue
			}
			pt := v.(throughputPoint)
			result.Points = append(result.Points, pt)
			s.Add(float64(pt.Size), pt.Mbps)
		}
		series = append(series, s)
	}
	text := fmt.Sprintf("== %s ==\n%s\n%s\n", title,
		stats.RenderFigure(plotTitle, "message bytes", "Mbps", series), note)
	return newReport(result, nil, text)
}

func fig2(cfg Config) (Report, error) {
	ds := dsOptions()
	dbl := ds
	dbl.Board = board.Config{RxDMA: board.DoubleCell}
	eager := ds
	eager.Driver = driver.Config{Cache: driver.CacheEager}
	cs := ds
	cs.Checksum = true
	const title = "Figure 2: DEC 5000/200 UDP/IP receive-side throughput"
	return figure(cfg, "fig2", title, title,
		"paper plateaus: double 379, single 340, invalidated 250 Mbps; CPU-touched ~80 Mbps",
		[]curve{
			{"double-cell DMA", dbl},
			{"single-cell DMA", ds},
			{"single-cell, cache invalidated", eager},
			{"single-cell, UDP checksum (text: ~80 Mbps)", cs},
		}, false)
}

func fig3(cfg Config) (Report, error) {
	al := alOptions()
	dbl := al
	dbl.Board = board.Config{RxDMA: board.DoubleCell}
	dblCS := dbl
	dblCS.Checksum = true
	sglCS := al
	sglCS.Checksum = true
	const title = "Figure 3: DEC 3000/600 UDP/IP receive-side throughput"
	return figure(cfg, "fig3", title, title,
		"paper plateaus: double ~516 (link-limited), double+CS 438, single ~460 Mbps",
		[]curve{
			{"double-cell DMA", dbl},
			{"double-cell, UDP-CS", dblCS},
			{"single-cell DMA", al},
			{"single-cell, UDP-CS", sglCS},
		}, false)
}

func fig4(cfg Config) (Report, error) {
	alCS := alOptions()
	alCS.Checksum = true
	return figure(cfg, "fig4", "Figure 4: UDP/IP transmit-side throughput", "Figure 4: transmit side",
		"paper: max 325 Mbps, limited by single-cell DMA TURBOchannel overhead",
		[]curve{
			{"3000/600", alOptions()},
			{"3000/600, UDP-CS", alCS},
			{"5000/200", dsOptions()},
		}, true)
}

// ablationRow is one design-choice ablation cell.
type ablationRow struct {
	Job        string `json:"job"`
	Experiment string `json:"experiment"`
	Variant    string `json:"variant"`
	Result     string `json:"result"`
}

// ablations runs the design-choice experiments of §2-§3, each variant
// one independent simulation (ablation.go). A rig's error fails its job
// and with it the scenario.
func ablations(cfg Config) (Report, error) {
	lazy := driver.Config{Cache: driver.CacheLazy}
	// The experiment label appears only on its first variant's row.
	rows := []struct {
		job, experiment, variant string
		run                      func() (string, error)
	}{
		{"ring/lockfree", "§2.1.1 host/board queue", "lock-free 1R1W", func() (string, error) { return ringTime(false) }},
		{"ring/spinlock", "", "spin-lock", func() (string, error) { return ringTime(true) }},
		{"irq/isolated", "§2.1.2 interrupts per PDU", "isolated PDUs", func() (string, error) { return irqPerPDU(false) }},
		{"irq/burst", "", "burst, busy host", func() (string, error) { return irqPerPDU(true) }},
		{"irq-discipline/coalesced", "§2.1.2 4 KB receive, 5000/200", "burst-coalesced", func() (string, error) { return rxMbps(cfg, lazy, board.Config{}, 4096, 10) }},
		{"irq-discipline/per-pdu", "", "interrupt per PDU", func() (string, error) { return rxMbps(cfg, lazy, board.Config{InterruptPerPDU: true}, 4096, 10) }},
		{"frag/naive-mtu", "§2.2 buffers per 16 KB msg", "4 KB MTU, misaligned (paper ≤14)", func() (string, error) { return fragBuffers(cfg, 4096, 128) }},
		{"frag/page-aligned-mtu", "", "page-aligned MTU", func() (string, error) { return fragBuffers(cfg, 4096+proto.IPHeaderSize, 0) }},
		{"vdma/descriptor-chain", "§2.2 send, scattered 4 pages", "descriptor chain", func() (string, error) { return sendTime(false) }},
		{"vdma/virtual-dma", "", "virtual DMA", func() (string, error) { return sendTime(true) }},
		{"contig/fragmenting", "§2.2 buffers per 4-page msg", "fragmenting", func() (string, error) { return contigBuffers(false) }},
		{"contig/contiguous", "", "contiguous", func() (string, error) { return contigBuffers(true) }},
		{"inval/lazy", "§2.3 cache invalidation", "lazy", func() (string, error) { return rxMbps(cfg, lazy, board.Config{}, 16384, 8) }},
		{"inval/eager", "", "eager", func() (string, error) {
			return rxMbps(cfg, driver.Config{Cache: driver.CacheEager}, board.Config{}, 16384, 8)
		}},
		{"rdp-loss/go-back-n", "§2.3 1% cell loss + RDP", "go-back-N", func() (string, error) { return lossy(cfg) }},
		{"wiring/primitive", "§2.4 wiring (4 pages)", "low-level primitive", func() (string, error) { return wire(false) }},
		{"wiring/standard", "", "standard service", func() (string, error) { return wire(true) }},
		{"dma/tx-single", "§2.5.1 DMA ceiling", "tx single-cell (paper 367)", func() (string, error) { return busMbps(2000, 44, (*bus.Bus).DMARead) }},
		{"dma/rx-single", "", "rx single-cell (paper 463)", func() (string, error) { return busMbps(2000, 44, (*bus.Bus).DMAWrite) }},
		{"dma/tx-double", "", "tx double-cell (paper 503)", func() (string, error) { return busMbps(2000, 88, (*bus.Bus).DMARead) }},
		{"dma/rx-double", "", "rx double-cell (paper 587)", func() (string, error) { return busMbps(2000, 88, (*bus.Bus).DMAWrite) }},
		{"skew/four-aal5", "§2.6 reassembly under skew", "four-aal5", func() (string, error) { return strat(cfg, board.FourAAL5) }},
		{"skew/seqnum", "", "seqnum", func() (string, error) { return strat(cfg, board.SeqNum) }},
		{"skew/arrival-order", "", "arrival-order", func() (string, error) { return strat(cfg, board.ArrivalOrder) }},
		{"combine/no-skew", "§2.6 double-cell combining", "no skew", func() (string, error) { return combined(0) }},
		{"combine/skewed", "", "one link 3 cells late", func() (string, error) { return combined(3) }},
		{"pio/dma", "§2.7 moving cells to the host", "DMA", func() (string, error) { return busMbps(1000, 44, (*bus.Bus).DMAWrite) }},
		{"pio/pio", "", "PIO", func() (string, error) { return busMbps(1000, 44, pioRead) }},
		{"fbuf/cached", "§3.1 fbuf transfer (16 KB)", "cached", func() (string, error) { return fb(true) }},
		{"fbuf/uncached", "", "uncached", func() (string, error) { return fb(false) }},
		{"prio/overload", "§3.1 priority overload", "early demux", priorityDelivery},
		{"adc/kernel", "§3.2 1 KB round trip, 3000/600", "kernel to kernel", func() (string, error) { return pingRTT(false) }},
		{"adc/user", "", "user to user via ADC", func() (string, error) { return pingRTT(true) }},
	}
	var jobs []parexp.Job
	for _, r := range rows {
		r := r
		jobs = append(jobs, parexp.Job{
			Name: "ablations/" + r.job,
			Run: func() (any, error) {
				res, err := r.run()
				return ablationRow{Job: r.job, Experiment: r.experiment, Variant: r.variant, Result: res}, err
			},
		})
	}
	vals, err := cfg.run(jobs)
	if err != nil || len(vals) == 0 {
		return Report{}, err
	}
	var result struct {
		Rows []ablationRow `json:"rows"`
	}
	tab := stats.Table{Cols: []string{"experiment", "variant", "result"}}
	for _, j := range jobs {
		v, ok := vals[j.Name]
		if !ok {
			continue
		}
		r := v.(ablationRow)
		result.Rows = append(result.Rows, r)
		tab.AddRow(r.Experiment, r.Variant, r.Result)
	}
	return newReport(result, nil, "== Ablations (design choices of §2-§3) ==\n"+tab.Render()+"\n")
}
