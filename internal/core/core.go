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
	// Link configures the physical links: rate, propagation delay,
	// skew model and fault injection. In a switched cluster the same
	// configuration applies to both hops (node→switch and switch→node).
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

// stripeWidth is the number of physical links per direction: the
// board's StripeWidth, or atm.StripeWidth when unset (the board's own
// default), so links and board always agree.
func (o Options) stripeWidth() int {
	if o.Board.StripeWidth == 0 {
		return atm.StripeWidth
	}
	return o.Board.StripeWidth
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

// NewTestbed builds the apparatus.
func NewTestbed(opt Options) *Testbed {
	opt = opt.withDefaults()
	e := sim.NewEngine(opt.Seed)
	cl := &Cluster{Eng: e, Opt: opt}
	cl.Nodes = []*Node{
		buildNode(e, opt, "A", 1),
		buildNode(e, opt, "B", 2),
	}
	cl.registerEngineDiag()
	tb := &Testbed{Cluster: cl, A: cl.Nodes[0], B: cl.Nodes[1]}

	if opt.TxIsolated {
		tb.sink = &txSink{}
		tb.A.Board.SetTxSink(func(c atm.Cell, _ int) {
			if tb.sink.cells == 0 {
				tb.sink.first = e.Now()
			}
			tb.sink.cells++
			tb.sink.bytes += int64(c.Len)
			tb.sink.last = e.Now()
		})
		return tb
	}

	tb.AB, tb.BA = wireBackToBack(e, opt, tb.A.Board, tb.B.Board)
	return tb
}

// wireBackToBack links boards a and b directly, one stripe group per
// direction. Each direction's fault site is the caller's FaultSite
// (default "tb") suffixed with /ab or /ba, as the switch suffixes
// /in%d and /out%d, so the two directions' injectors draw from
// independent deterministic streams. The links draw their stamp ids in
// construction order (A→B lanes, then B→A), which fixes how a delivery
// tied with another event at the same instant orders; the committed
// fingerprints pin that order.
func wireBackToBack(e *sim.Engine, opt Options, a, b *board.Board) (ab, ba *atm.StripeGroup) {
	site := opt.Link.FaultSite
	if site == "" {
		site = "tb"
	}
	wire := func(from, to *board.Board, dir string) *atm.StripeGroup {
		lc := opt.Link
		lc.FaultSite = site + "/" + dir
		g := atm.NewStripeGroup(e, opt.stripeWidth(), lc)
		from.AttachTxLinks(g.Links())
		to.AttachRxLinks(g)
		return g
	}
	return wire(a, b, "ab"), wire(b, a, "ba")
}

// messagePattern returns the n bytes every message of the latency and
// transmit experiments carries. allocFrom copies them into simulated
// memory, so one pattern serves a whole experiment.
func messagePattern(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	return data
}

// RunLatency measures the average round-trip time for messages of the
// given size, as in Table 1: a ping-pong between test programs linked
// into the kernel, boards back to back. The first round is a warm-up
// and is excluded.
func (tb *Testbed) RunLatency(kind ProtoKind, msgSize, rounds int) (time.Duration, error) {
	return tb.Cluster.RunLatency(0, 1, kind, msgSize, rounds)
}

// allocFrom builds a message of data's bytes in space, returning it with
// a free function.
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
	tb.Eng.Go("tx-experiment", func(p *sim.Proc) {
		// Queue back-to-back so the transmit path pipelines; buffers are
		// freed only after the final flush.
		var frees []func()
		data := messagePattern(msgSize)
		for i := 0; i < count; i++ {
			m, free, err := allocFrom(tb.A.Host.Kernel, data)
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
	tb.Eng.Run()
	if !done || tb.sink.cells == 0 {
		return 0, fmt.Errorf("core: transmit experiment did not complete")
	}
	elapsed := time.Duration(tb.sink.last - tb.sink.first)
	return stats.Mbps(int64(count)*int64(msgSize), elapsed), tb.CheckPools()
}

// SinkStats exposes the isolated transmitter's sink counters.
func (tb *Testbed) SinkStats() (cells, bytes int64) {
	if tb.sink == nil {
		return 0, 0
	}
	return tb.sink.cells, tb.sink.bytes
}
