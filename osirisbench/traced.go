package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedRun runs a warm-up pass, an untraced pass and a traced pass of
// r's workload, then the layer probes, and returns the per-layer
// metrics and the trace document. The traced pass must reproduce the
// untraced fingerprint: telemetry may not perturb the simulation.
func tracedRun(r *runner) (map[string]metric, traceDoc) {
	r.pass(nil, nil)
	plain, _ := r.pass(nil, nil)

	tr := newTracer()
	l := newLayers()
	var st passStats
	var m *meter
	tr.do(r.w.name, func() { st, m = r.pass(tr, l) })
	res := r.last
	cells := float64(max(res.cells, 1))
	s := l.sum

	out := map[string]metric{
		"sim.events_per_cell":     {float64(res.events) / cells, "count"},
		"atm.switch_dropped":      {s["atm.switch_dropped"], "count"},
		"atm.switch_marked":       {s["atm.switch_marked"], "count"},
		"atm.switch_high_water":   {l.max["atm.switch_high_water"], "count"},
		"atm.queue_delay_us_p50":  {l.quantile("atm.queue_delay_us", 0.5), "us"},
		"atm.queue_delay_us_p99":  {l.quantile("atm.queue_delay_us", 0.99), "us"},
		"board.combined_dma_frac": {ratio(s["board.combined_dmas"], s["board.combined_dmas"]+s["board.single_dmas"]), "ratio"},
		"board.fifo_dropped":      {s["board.fifo_dropped"], "count"},
		"board.pdus_dropped":      {s["board.pdus_dropped"], "count"},
		"board.rx_irqs_per_pdu":   {ratio(s["board.rx_irqs"], s["board.pdus_rx"]), "count"},
		"board.reasm_span_us_p50": {l.quantile("board.reasm_span_us", 0.5), "us"},
		"board.reasm_span_us_p99": {l.quantile("board.reasm_span_us", 0.99), "us"},
		"board.quota_dropped":     {s["board.quota_dropped"], "count"},
		"board.ring_dropped":      {s["board.ring_dropped"], "count"},
		"bus.dma_words_per_cell":  {s["bus.dma_words"] / cells, "count"},
		"cache.read_hit_frac":     {ratio(s["cache.read_hits"], s["cache.read_hits"]+s["cache.read_misses"]), "ratio"},
		"driver.tx_stalls":        {s["driver.tx_stalls"], "count"},
		"driver.rx_aborted":       {s["driver.rx_aborted"], "count"},
		"proto.rdp_retx_per_msg":  {ratio(s["proto.rdp_retx"], s["proto.rdp_msgs"]), "count"},
		"proto.rdp_timeouts":      {s["proto.rdp_timeouts"], "count"},
		"proto.rdp_fast_retx":     {s["proto.rdp_fast_retx"], "count"},
		"proto.rdp_ecn_backoffs":  {s["proto.rdp_ecn_backoffs"], "count"},
		"fbuf.hit_frac":           {ratio(s["fbuf.hits"], s["fbuf.hits"]+s["fbuf.misses"]), "ratio"},
		"fbuf.evictions":          {s["fbuf.evictions"], "count"},
		"fbuf.demotions":          {s["fbuf.demotions"], "count"},
		"adc.violations":          {s["adc.violations"], "count"},
		"core.setup_s":            {m.setup.Seconds(), "s"},
		"core.run_s":              {m.run.Seconds(), "s"},
		"core.check_s":            {m.check.Seconds(), "s"},
		"trace.overhead_pct":      {100 * (plain.cellsPerS - st.cellsPerS) / plain.cellsPerS, "%"},
	}

	// One more pass, with a sampler on every engine, measures the
	// pending-event depth sim.event_ns runs at. Its outputs are discarded.
	depth := tenantsEventDepth
	var measured bool
	tr.do("event_depth", func() {
		ds := &depthSampler{}
		r.w.pass(r.sz, simSeed(r.seed), &meter{depth: ds}, nil)
		if ds.events > 0 {
			depth, measured = int(ds.mean()+0.5), true
		}
	})
	fmt.Fprintf(os.Stderr, "%s: sim.event_ns at a pending-event depth of %d (measured %v)\n", r.w.name, depth, measured)

	tr.do("probes", func() {
		for _, p := range probes(depth) {
			perOp, allocs := p.run(tr)
			out[p.name] = metric{perOp, p.unit}
			out[p.name+".allocs"] = metric{allocs, "allocs/op"}
		}
	})

	doc := traceDoc{Metrics: out, Points: res.points, Spans: tr.spans, EventDepth: depth, EventDepthMeasured: measured}
	if len(res.points) > 0 {
		line, _ := json.Marshal(map[string]any{"paper_points": res.points})
		fmt.Println(string(line))
	}
	return out, doc
}
