// Command osiris-sim runs one configurable experiment on the simulated
// OSIRIS testbed and prints the measurement plus a breakdown of what the
// hardware and software did — the tool for exploring the design space
// the paper's lessons came from.
//
// Examples:
//
//	osiris-sim -mode latency -machine 5000 -proto udp -size 4096
//	osiris-sim -mode rx -machine 3000 -dma double -checksum
//	osiris-sim -mode tx -machine 3000 -size 65536
//	osiris-sim -mode latency -skew 10us -strategy four-aal5
//	osiris-sim -mode rx -trace rx.trace.json   # then load in Perfetto
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/hostsim"
	"repro/internal/trace"
)

var (
	flagMode      = flag.String("mode", "latency", "experiment: latency | rx | tx")
	flagMachine   = flag.String("machine", "5000", "host model: 5000 (DECstation 5000/200) | 3000 (DEC 3000/600)")
	flagProto     = flag.String("proto", "udp", "protocol for latency mode: atm | udp")
	flagSize      = flag.Int("size", 4096, "message size in bytes")
	flagCount     = flag.Int("count", 8, "messages (throughput) or rounds (latency)")
	flagDMA       = flag.String("dma", "single", "receive DMA mode: single | double")
	flagTxPolicy  = flag.String("txdma", "boundary-stop", "transmit DMA policy: boundary-stop | fixed-cell | arbitrary")
	flagCache     = flag.String("cache", "", "cache policy: lazy | eager | none (default lazy on 5000, none on 3000)")
	flagChecksum  = flag.Bool("checksum", false, "enable the UDP data checksum")
	flagMTU       = flag.Int("mtu", 16*1024, "IP MTU")
	flagSkew      = flag.Duration("skew", 0, "max per-cell queueing skew across links (e.g. 10us)")
	flagStrategy  = flag.String("strategy", "four-aal5", "reassembly strategy: four-aal5 | seqnum | arrival-order")
	flagSeed      = flag.Int64("seed", 1, "simulation seed")
	flagTrace     = flag.String("trace", "", "write the run's timeline as Chrome trace-event JSON to this file (load in Perfetto or chrome://tracing)")
	flagTraceCats = flag.String("tracecats", "", "print textual trace events (comma-separated categories: cell,pdu,irq,drop,proto,drv,q; 'all' for everything)")
	flagTraceN    = flag.Int("trace-limit", 200, "max textual trace events to print (most recent)")
)

func main() {
	flag.Parse()
	opt, err := buildOptions()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	arm := func(tb *core.Testbed) *core.Testbed {
		if *flagTraceCats != "" || *flagTrace != "" {
			currentTimeline = trace.NewTimeline()
			currentTimeline.Attach(tb.Eng, "testbed")
		}
		return tb
	}

	switch *flagMode {
	case "latency":
		kind := core.UDPIP
		if *flagProto == "atm" {
			kind = core.ATMRaw
		}
		tb := arm(core.NewTestbed(opt))
		rtt, err := tb.RunLatency(kind, *flagSize, *flagCount)
		fail(err)
		fmt.Printf("round-trip latency: %v (%.1f µs) for %d-byte %v messages\n",
			rtt, rtt.Seconds()*1e6, *flagSize, kind)
		report(tb)
	case "rx":
		tb := arm(core.NewTestbed(opt))
		mbps, err := tb.RunReceiveThroughput(*flagSize, *flagCount)
		fail(err)
		fmt.Printf("receive-side throughput: %.1f Mbps (%d-byte messages, board-generated)\n", mbps, *flagSize)
		report(tb)
	case "tx":
		opt.TxIsolated = true
		tb := arm(core.NewTestbed(opt))
		mbps, err := tb.RunTransmitThroughput(*flagSize, *flagCount)
		fail(err)
		cells, bytes := tb.SinkStats()
		fmt.Printf("transmit-side throughput: %.1f Mbps (%d-byte messages)\n", mbps, *flagSize)
		fmt.Printf("cells out: %d (%d payload bytes)\n", cells, bytes)
		report(tb)
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *flagMode)
		os.Exit(2)
	}
}

// currentTimeline holds the armed typed-event timeline, if any.
var currentTimeline *trace.Timeline

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func buildOptions() (core.Options, error) {
	var opt core.Options
	switch *flagMachine {
	case "5000":
		opt.Profile = hostsim.DEC5000_200()
		opt.Driver.Cache = driver.CacheLazy
	case "3000":
		opt.Profile = hostsim.DEC3000_600()
		opt.Driver.Cache = driver.CacheNone
	default:
		return opt, fmt.Errorf("unknown machine %q", *flagMachine)
	}
	switch *flagCache {
	case "":
	case "lazy":
		opt.Driver.Cache = driver.CacheLazy
	case "eager":
		opt.Driver.Cache = driver.CacheEager
	case "none":
		opt.Driver.Cache = driver.CacheNone
	default:
		return opt, fmt.Errorf("unknown cache policy %q", *flagCache)
	}
	switch *flagDMA {
	case "single":
		opt.Board.RxDMA = board.SingleCell
	case "double":
		opt.Board.RxDMA = board.DoubleCell
	default:
		return opt, fmt.Errorf("unknown dma mode %q", *flagDMA)
	}
	switch *flagTxPolicy {
	case "boundary-stop":
		opt.Board.TxPolicy = board.BoundaryStop
	case "fixed-cell":
		opt.Board.TxPolicy = board.FixedCell
	case "arbitrary":
		opt.Board.TxPolicy = board.ArbitraryLength
	default:
		return opt, fmt.Errorf("unknown txdma policy %q", *flagTxPolicy)
	}
	switch *flagStrategy {
	case "four-aal5":
		opt.Board.Strategy = board.FourAAL5
	case "seqnum":
		opt.Board.Strategy = board.SeqNum
	case "arrival-order":
		opt.Board.Strategy = board.ArrivalOrder
	default:
		return opt, fmt.Errorf("unknown strategy %q", *flagStrategy)
	}
	opt.Checksum = *flagChecksum
	opt.MTU = *flagMTU
	opt.Seed = *flagSeed
	if *flagSkew > 0 {
		opt.Link.Skew = atm.QueueingSkew{Max: *flagSkew}
	}
	return opt, nil
}

func report(tb *core.Testbed) {
	defer tb.Shutdown()
	tl := currentTimeline
	if *flagTraceCats != "" {
		var cats []string
		if *flagTraceCats != "all" {
			cats = strings.Split(*flagTraceCats, ",")
		}
		fmt.Printf("\n--- trace (categories %s, at most %d events) ---\n", *flagTraceCats, *flagTraceN)
		fail(tl.WriteText(os.Stdout, cats, *flagTraceN))
	}
	if *flagTrace != "" {
		f, err := os.Create(*flagTrace)
		fail(err)
		fail(tl.WriteChrome(f))
		fail(f.Close())
		fmt.Printf("wrote %d trace events to %s\n", tl.Len(), *flagTrace)
	}
	fmt.Printf("\n--- breakdown (virtual time %v) ---\n", time.Duration(tb.Eng.Now()))
	for _, n := range []struct {
		name string
		node *core.Node
	}{{"host A", tb.A}, {"host B", tb.B}} {
		bs := n.node.Board.Stats()
		ds := n.node.Drv.Stats()
		bus := n.node.Host.Bus.Stats()
		fmt.Printf("%s board: cellsTx=%d cellsRx=%d pduTx=%d pduRx=%d combinedDMA=%d singleDMA=%d splitCells=%d rxIRQ=%d txIRQ=%d drops=%d\n",
			n.name, bs.CellsTx, bs.CellsRx, bs.PDUsTx, bs.PDUsRx, bs.CombinedDMAs, bs.SingleDMAs, bs.SplitCellsTx, bs.RxIRQs, bs.TxIRQs, bs.PDUsDropped)
		fmt.Printf("%s driver: txPDU=%d txBufs=%d rxPDU=%d rxBufs=%d stalls=%d cksumErr=%d recoveries=%d\n",
			n.name, ds.TxPDUs, ds.TxBuffers, ds.RxPDUs, ds.RxBuffers, ds.TxStalls, ds.RxChecksumErr, ds.Recoveries)
		fmt.Printf("%s bus: dmaRd=%d(%dw) dmaWr=%d(%dw) pioWords=%d cpuMemWords=%d busy=%v\n",
			n.name, bus.DMAReadTxns, bus.DMAReadWords, bus.DMAWriteTxns, bus.DMAWriteWords, bus.PIOWords, bus.CPUMemWords, n.node.Host.Bus.BusyTime())
		cs := n.node.Host.Cache.Stats()
		fmt.Printf("%s cache: readHit=%d readMiss=%d stale=%d invalWords=%d\n",
			n.name, cs.ReadHits, cs.ReadMisses, cs.StaleReads, cs.InvalidatedWords)
		is := n.node.IP.Stats()
		us := n.node.UDP.Stats()
		fmt.Printf("%s proto: ipFragsTx=%d ipFragsRx=%d udpRx=%d udpCksumErr=%d recovered=%d dropped=%d\n",
			n.name, is.FragsSent, is.FragsRecv, us.Received, us.ChecksumErr, us.Recovered, is.Dropped+int64(us.Dropped))
	}
}
