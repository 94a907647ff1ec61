// Package core assembles simulated systems out of hosts with OSIRIS
// boards. Two topologies are offered: the paper's own apparatus — two
// hosts linked back to back by four striped 155 Mbps links (Testbed,
// §4) — and its generalization, N hosts joined by a VCI-routed cell
// switch (Cluster). The experiment drivers regenerate the paper's
// evaluation — round-trip latency (Table 1), receive-side throughput
// with the board's fictitious-PDU generator (Figures 2 and 3), and
// transmit-side throughput in isolation (Figure 4) — and extend it
// with fan-in (incast) workloads over the switch.
package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/driver"
	"repro/internal/hostsim"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xkernel"
)

// ProtoKind selects the protocol configuration of Table 1.
type ProtoKind int

const (
	// ATMRaw runs test programs directly on the OSIRIS driver.
	ATMRaw ProtoKind = iota
	// UDPIP runs them on the UDP/IP stack (checksum off, per Table 1).
	UDPIP
)

func (k ProtoKind) String() string {
	if k == ATMRaw {
		return "ATM"
	}
	return "UDP/IP"
}

// DefaultSeed is the simulation seed used when Options.Seed is left
// zero, so that Options{} stays reproducible run to run.
const DefaultSeed int64 = 0x0514

// ZeroSeed is a sentinel for Options.Seed requesting a literal zero
// seed (which the zero value of the field cannot express, since it
// selects DefaultSeed).
const ZeroSeed int64 = math.MinInt64

// hostMemPages sizes each host's physical memory. RunTenants grows it
// with the tenant count; every other topology uses it as is.
const hostMemPages = 4096

// Options configures a testbed or cluster.
type Options struct {
	// Profile is the machine model for all hosts (default DEC5000/200).
	Profile hostsim.Profile
	// Board configures every board's firmware policies.
	Board board.Config
	// Driver configures every host's driver.
	Driver driver.Config
	// MTU is the IP maximum transfer unit (default 16 KB, §4).
	MTU int
	// Checksum enables the UDP data checksum (the "UDP-CS" curves).
	Checksum bool
	// Link configures the physical links (skew models etc.). In a
	// switched cluster the same configuration applies to both hops
	// (node→switch and switch→node).
	Link atm.LinkConfig
	// FabricQueueCells bounds each switch output port's cell queue in a
	// switched cluster (default atm.DefaultSwitchQueueCells); cells
	// arriving at a full queue are dropped and counted. Ignored by the
	// back-to-back testbed.
	FabricQueueCells int
	// FabricMarkThreshold enables ECN-style marking at the switch: cells
	// entering an output queue at or past this occupancy get their CE
	// bit set (atm.SwitchConfig.MarkThreshold). 0 (the default) disables
	// marking. Ignored by the back-to-back testbed.
	FabricMarkThreshold int
	// PerCellFabric forces the switch's per-cell queue/arbiter machine
	// instead of train forwarding (atm.SwitchConfig.PerCellFabric);
	// results are byte-identical either way, and CI diffs the two.
	PerCellFabric bool
	// TxIsolated omits the links entirely and attaches a counting sink
	// to host A's board — the Figure 4 transmit-side isolation
	// (testbed only).
	TxIsolated bool
	// Seed seeds the simulation's deterministic randomness. The zero
	// value selects DefaultSeed; pass ZeroSeed to run with a literal
	// zero seed.
	Seed int64
	// Metrics, when non-nil, registers the whole stack's telemetry in
	// this registry as the topology is built: per-node board, driver,
	// and RDP families, per-port fabric families, and (as diagnostics)
	// the engine substrate. A nil registry disables the plane entirely —
	// every component holds nil handles whose methods are no-ops, so the
	// hot paths pay one branch and zero allocations. One registry serves
	// one topology; building two clusters against the same registry
	// panics on the duplicate names.
	Metrics *metrics.Registry
	// AdaptiveMetrics additionally registers each node's adaptive-RDP
	// telemetry family (fast_retx, ecn_echoed, ecn_backoffs,
	// rtt_samples, cwnd/ssthresh gauges, RTT quantile sketch) in the
	// Metrics registry. Gated separately because the committed
	// BENCH_metrics.json snapshot pins the exact metric name set of the
	// legacy experiments: a configuration that never opens an adaptive
	// session must not grow new (all-zero) families. No-op when Metrics
	// is nil.
	AdaptiveMetrics bool
	// ADCMetrics additionally registers the multi-tenant plane's
	// telemetry — the ADC managers' violation and mux-occupancy families
	// plus the fbuf manager's churn family — when an experiment builds
	// those components (RunTenants). Gated separately for the same reason
	// as AdaptiveMetrics: the committed BENCH_metrics.json snapshot pins
	// the metric name set of configurations that never open an ADC. No-op
	// when Metrics is nil.
	ADCMetrics bool
	// Shards partitions the topology over that many engine shards run by
	// a conservative-parallel scheduler (sim.ShardGroup), with the link
	// propagation delay as lookahead. 0 or 1 selects the exact serial
	// inline path — one engine, no group, no worker goroutines — the
	// same discipline as parexp's Workers=1. Values above the component
	// count are clamped (a cluster of n nodes uses at most n+1 shards:
	// the switch plus one per node; a testbed uses at most 2). Results
	// are byte-identical at every shard count; configurations that draw
	// per-cell randomness from the shared engine RNG (Link.LossRate,
	// random skew) refuse to shard.
	Shards int
}

func (o Options) withDefaults() Options {
	if o.Profile.Name == "" {
		o.Profile = hostsim.DEC5000_200()
	}
	if o.MTU == 0 {
		o.MTU = 16 * 1024
	}
	o.Seed = resolveSeed(o.Seed)
	return o
}

// resolveSeed maps a Seed field's zero value to DefaultSeed and the
// ZeroSeed sentinel to a literal zero.
func resolveSeed(seed int64) int64 {
	switch seed {
	case 0:
		return DefaultSeed
	case ZeroSeed:
		return 0
	}
	return seed
}

// Node is one host with its board, driver, and protocol graph.
type Node struct {
	Host  *hostsim.Host
	Board *board.Board
	Drv   *driver.Driver
	IP    *proto.IP
	UDP   *proto.UDP
	RDP   *proto.RDP
	Raw   *proto.Raw
	Graph *xkernel.Graph
	// Addr is the node's internetwork address (node index + 1).
	Addr proto.HostAddr
}

// Testbed is the two-host apparatus of §4: the 2-node special case of a
// Cluster, with the boards wired directly back to back (no switch, so
// the calibrated Table 1 / Figure 2–4 numbers are untouched by the
// fabric generalization).
type Testbed struct {
	*Cluster
	A, B *Node
	// AB and BA are the directed stripe groups wiring the boards (A→B
	// and B→A), exposed so experiments can read per-direction link and
	// fault-injection statistics. Both are nil in TxIsolated mode.
	AB, BA *atm.StripeGroup
	sink   *txSink // present in TxIsolated mode
}

// txSink counts cells absorbed from an isolated transmitter.
type txSink struct {
	bytes int64
	cells int64
	first sim.Time
	last  sim.Time
}

// NewTestbed builds the apparatus. With Options.Shards > 1 each host
// gets its own engine shard (host A on shard 0, host B on shard 1) and
// the two directed stripe groups become the cross-shard boundary; the
// calibrated results are byte-identical either way.
func NewTestbed(opt Options) *Testbed {
	opt = opt.withDefaults()
	var cl *Cluster
	if opt.Shards > 1 {
		checkShardable(opt)
		plan := testbedPlan()
		g := sim.NewShardGroup(opt.Seed, plan.Shards)
		cl = &Cluster{Group: g, Opt: opt, plan: plan}
		cl.engs = []*sim.Engine{g.Engine(plan.NodeShard[0]), g.Engine(plan.NodeShard[1])}
		cl.Nodes = []*Node{
			buildNode(cl.engs[0], opt, "A", 1),
			buildNode(cl.engs[1], opt, "B", 2),
		}
	} else {
		e := sim.NewEngine(opt.Seed)
		cl = &Cluster{Eng: e, Opt: opt, plan: ShardPlan{Shards: 1, FabricShard: -1, NodeShard: []int{0, 0}}}
		cl.Nodes = []*Node{
			buildNode(e, opt, "A", 1),
			buildNode(e, opt, "B", 2),
		}
	}
	cl.registerEngineDiag()
	tb := &Testbed{Cluster: cl, A: cl.Nodes[0], B: cl.Nodes[1]}

	if opt.TxIsolated {
		eA := cl.EngFor(0)
		tb.sink = &txSink{}
		tb.A.Board.SetTxSink(func(c atm.Cell, _ int) {
			if tb.sink.cells == 0 {
				tb.sink.first = eA.Now()
			}
			tb.sink.cells++
			tb.sink.bytes += int64(c.Len)
			tb.sink.last = eA.Now()
		})
		return tb
	}

	// Each direction gets its own fault site so the A→B and B→A
	// injectors draw from independent deterministic streams.
	var xid uint64
	wire := func(from, to int, site string) *atm.StripeGroup {
		lc := opt.Link
		if lc.Fault != nil && lc.FaultSite == "" {
			lc.FaultSite = site
		}
		var g *atm.StripeGroup
		if cl.Group != nil {
			g = atm.NewCrossStripeGroup(cl.Group, cl.EngFor(from), cl.EngFor(to), atm.StripeWidth, lc)
		} else {
			g = atm.NewStripeGroup(cl.Eng, atm.StripeWidth, lc)
			// The channel ids NewCrossStripeGroup draws in a sharded
			// testbed: without them a link delivery tied with a local
			// event orders differently serial and sharded (Table 1's
			// DEC 5000/200 UDP/IP 1 KB round trip moved by ~40 ns).
			g.Stamp(func() uint64 { xid++; return xid })
		}
		cl.Nodes[from].Board.AttachTxLinks(g.Links())
		cl.Nodes[to].Board.AttachRxLinks(g)
		return g
	}
	tb.AB = wire(0, 1, "tb/ab")
	tb.BA = wire(1, 0, "tb/ba")
	return tb
}

// openPair opens matching sessions on A and B for the given protocol.
func (tb *Testbed) openPair(kind ProtoKind) (a, b xkernel.Session, err error) {
	return tb.OpenPair(0, 1, kind)
}

// alloc builds a message of n pattern bytes in space, returning it with
// a free function.
func alloc(space *mem.AddressSpace, n int) (*msg.Message, func(), error) {
	if n == 0 {
		return msg.New(), func() {}, nil
	}
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	return allocFrom(space, data)
}

// RunLatency measures the average round-trip time for messages of the
// given size, as in Table 1: a ping-pong between test programs linked
// into the kernel, boards back to back. The first round is a warm-up
// and is excluded.
func (tb *Testbed) RunLatency(kind ProtoKind, msgSize, rounds int) (time.Duration, error) {
	return tb.Cluster.RunLatency(0, 1, kind, msgSize, rounds)
}

// allocFrom is alloc with caller-provided contents.
func allocFrom(space *mem.AddressSpace, data []byte) (*msg.Message, func(), error) {
	m, err := msg.FromBytes(space, data)
	if err != nil {
		return nil, nil, err
	}
	if len(data) == 0 {
		return m, func() {}, nil
	}
	f := m.Fragments()[0]
	return m, func() { f.Space.Free(f.VA, f.Len) }, nil
}

// RunReceiveThroughput reproduces the Figure 2/3 apparatus: host B's
// board generates fictitious UDP/IP traffic of the given message size
// (cells paced at the 622 Mbps channel's payload rate), and the
// measured quantity is the rate at which B's stack delivers message
// payload to the test program. count messages are generated; the first
// is warm-up.
func (tb *Testbed) RunReceiveThroughput(msgSize, count int) (float64, error) {
	return tb.Cluster.RunReceiveThroughput(1, msgSize, count)
}

// RunTransmitThroughput reproduces the Figure 4 apparatus: host A's
// transmit path in isolation (the board's cells are absorbed by a sink),
// sending count messages of the given size through the UDP/IP stack.
// The rate is message payload over the time from first to last cell out.
func (tb *Testbed) RunTransmitThroughput(msgSize, count int) (float64, error) {
	if tb.sink == nil {
		return 0, fmt.Errorf("core: testbed not built with TxIsolated")
	}
	v := tb.allocVCI()
	sess, err := tb.A.UDP.Open(proto.UDPOpen{Remote: 2, VCI: v, SrcPort: 1, DstPort: 2, Checksum: tb.Opt.Checksum})
	if err != nil {
		return 0, err
	}
	done := false
	tb.Go(0, "tx-experiment", func(p *sim.Proc) {
		// Queue back-to-back so the transmit path pipelines; buffers are
		// freed only after the final flush.
		var frees []func()
		for i := 0; i < count; i++ {
			m, free, err := alloc(tb.A.Host.Kernel, msgSize)
			if err != nil {
				return
			}
			frees = append(frees, free)
			if err := sess.Push(p, m); err != nil {
				return
			}
		}
		tb.A.Drv.Flush(p)
		for _, free := range frees {
			free()
		}
		done = true
	})
	tb.Run()
	if !done || tb.sink.cells == 0 {
		return 0, fmt.Errorf("core: transmit experiment did not complete")
	}
	elapsed := time.Duration(tb.sink.last - tb.sink.first)
	return stats.Mbps(int64(count)*int64(msgSize), elapsed), nil
}

// SinkStats exposes the isolated transmitter's sink counters.
func (tb *Testbed) SinkStats() (cells, bytes int64) {
	if tb.sink == nil {
		return 0, 0
	}
	return tb.sink.cells, tb.sink.bytes
}
