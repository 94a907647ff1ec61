// fanin-server: eight clients hammer one server through a VCI-routed
// cell switch — the N-node generalization of the paper's back-to-back
// apparatus. Each client gets its own VCI (the §3.1 early-demux key,
// which is also exactly what the switch routes on), so the server's
// board runs one AAL5 reassembly per client concurrently as the flows
// interleave in the fabric.
//
// Two regimes are shown. Paced: bursts staggered so they never overlap
// at the server, every payload verified byte for byte. Overload: all
// clients at full rate — 8× the server channel — and the switch's
// bounded output queue overflows; drops are counted, and whatever does
// arrive is still intact (the AAL5 trailer and UDP checksum discard
// damaged PDUs, never deliver them).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/workload"
)

// -metrics attaches a telemetry registry to each regime's cluster and
// writes both canonical snapshots to the given file. Stdout is
// byte-identical with or without it: observing the system must not
// change what it does (TestMetricsAndTracingDoNotPerturbExperiment).
var flagMetrics = flag.String("metrics", "", "write both regimes' canonical telemetry snapshots to this JSON file")

func registry() *metrics.Registry {
	if *flagMetrics == "" {
		return nil
	}
	return metrics.New()
}

func main() {
	flag.Parse()
	w := workload.DefaultFanIn()

	// Paced regime: lossless fan-in under the server's receive ceiling.
	// Each regime gets its own registry (metric names are per-topology).
	pacedReg := registry()
	cl := core.NewCluster(core.Options{Metrics: pacedReg}, w.Clients+1)
	res, err := cl.RunFanIn(w)
	if err != nil {
		log.Fatal(err)
	}
	cl.Shutdown()

	fmt.Printf("fan-in: %d clients × %d messages × %d KB through a %d-port switch\n\n",
		w.Clients, w.Messages, w.MessageBytes/1024, w.Clients+1)
	tab := stats.Table{
		Title: "paced (bursts staggered, aggregate under the host receive ceiling)",
		Cols:  []string{"client", "delivered", "goodput (Mbps)"},
	}
	for _, c := range res.Clients {
		tab.AddRow(fmt.Sprintf("%d", c.Client),
			fmt.Sprintf("%d/%d", c.Delivered, c.Sent),
			fmt.Sprintf("%.1f", c.Mbps))
	}
	fmt.Print(tab.Render())
	fmt.Printf("aggregate: %d/%d messages, %.1f Mbps server-side, %d corrupt, %d switch drops\n\n",
		res.Delivered, res.Sent, res.AggregateMbps, res.Corrupt, res.SwitchDropped)
	if res.Delivered != res.Sent || res.Corrupt != 0 || res.SwitchDropped != 0 {
		log.Fatal("paced run was not lossless")
	}

	// Overload regime: incast collapse at the switch's output port.
	overReg := registry()
	over, err := core.RunFanIn(core.Options{Metrics: overReg}, w.Clients, w.MessageBytes, w.Messages)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("overload (no pacing: %d × 622 Mbps into one 622 Mbps port)\n", w.Clients)
	fmt.Printf("  delivered: %d/%d messages, goodput %.1f Mbps\n", over.Delivered, over.Sent, over.AggregateMbps)
	if over.Shortfall > 0 {
		// The whole point of the overload regime: UDP incast loss is not
		// an aggregate rounding error, it is specific clients' messages
		// gone for good. Name the victims.
		fmt.Printf("  SHORTFALL: %d messages never arrived —", over.Shortfall)
		for _, c := range over.Clients {
			if c.Shortfall > 0 {
				fmt.Printf(" client%d:%d", c.Client, c.Shortfall)
			}
		}
		fmt.Printf("\n  (unreliable transport: lost PDUs stay lost; `osiris-bench -run incast` runs the same pattern over adaptive RDP)\n")
	}
	fmt.Printf("  switch cells: %d forwarded, %d dropped at the output queue\n", over.SwitchForwarded, over.SwitchDropped)
	fmt.Printf("  corrupt deliveries: %d (loss surfaces as missing PDUs, never damaged ones)\n\n", over.Corrupt)

	// Per-port fabric counters: the incast signature is that port 0 (the
	// server's egress) takes every drop and the queue high-water pegs at
	// capacity, while the client ports stay clean.
	ptab := stats.Table{
		Title: "per-port fabric counters (overload)",
		Cols:  []string{"port", "role", "cells in", "forwarded", "dropped", "queue high-water"},
	}
	for _, p := range over.Ports {
		role := "server"
		if p.Port > 0 {
			role = fmt.Sprintf("client %d", p.Port-1)
		}
		ptab.AddRow(fmt.Sprintf("%d", p.Port), role,
			fmt.Sprintf("%d", p.In), fmt.Sprintf("%d", p.Forwarded),
			fmt.Sprintf("%d", p.Dropped), fmt.Sprintf("%d", p.HighWater))
	}
	fmt.Print(ptab.Render())
	if over.SwitchDropped == 0 {
		log.Fatal("overload recorded no switch drops")
	}
	if over.Corrupt != 0 {
		log.Fatal("overload corrupted a delivery")
	}

	if *flagMetrics != "" {
		doc := struct {
			Schema      string `json:"schema"`
			Experiments []struct {
				Name    string          `json:"name"`
				Metrics []metrics.Value `json:"metrics"`
			} `json:"experiments"`
		}{Schema: "fanin-metrics/1"}
		for _, e := range []struct {
			name string
			reg  *metrics.Registry
		}{{"paced", pacedReg}, {"overload", overReg}} {
			doc.Experiments = append(doc.Experiments, struct {
				Name    string          `json:"name"`
				Metrics []metrics.Value `json:"metrics"`
			}{Name: e.name, Metrics: e.reg.Snapshot(false)})
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*flagMetrics, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		// Stderr, not stdout: stdout must match a run without -metrics.
		fmt.Fprintf(os.Stderr, "wrote %s\n", *flagMetrics)
	}
}
