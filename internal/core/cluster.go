package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/driver"
	"repro/internal/hostsim"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xkernel"
)

// Cluster is the topology layer: N simulated hosts, each with an OSIRIS
// board, joined by a VCI-routed cell switch (the generalization of the
// paper's two boards back to back). Node 0 conventionally plays the
// server in fan-in workloads; any pair of nodes can open sessions with
// OpenPair.
//
// A Cluster built by NewTestbed has no switch — its two nodes are wired
// directly, preserving the paper's §4 apparatus bit for bit — so Fabric
// is nil there.
type Cluster struct {
	// Eng is the one engine every node, link and the switch run on.
	Eng   *sim.Engine
	Opt   Options
	Nodes []*Node
	// Fabric is the cell switch joining the nodes (nil for the two-node
	// back-to-back testbed).
	Fabric *atm.Switch
	nextID int
}

// buildNode assembles one host: machine, board, driver, and the
// protocol stack, named and addressed for the topology.
func buildNode(e *sim.Engine, opt Options, name string, addr proto.HostAddr) *Node {
	h := hostsim.New(e, opt.Profile, hostMemPages)
	bcfg := opt.Board
	bcfg.Name = name
	b := board.New(e, h, bcfg)
	d := driver.New(e, h, b, opt.Driver)
	n := &Node{Host: h, Board: b, Drv: d, Addr: addr}
	n.IP = proto.NewIP(h, d, addr, opt.MTU)
	n.UDP = proto.NewUDP(h, n.IP)
	n.RDP = proto.NewRDP(h, n.IP)
	n.Raw = proto.NewRaw(h, d)
	if opt.Metrics != nil {
		b.RegisterMetrics(opt.Metrics, name+"/board")
		d.RegisterMetrics(opt.Metrics, name+"/driver")
		n.RDP.RegisterMetrics(opt.Metrics, name+"/rdp")
		if opt.AdaptiveMetrics {
			n.RDP.RegisterAdaptiveMetrics(opt.Metrics, name+"/rdp")
		}
	}
	return n
}

// NewCluster builds n nodes (n ≥ 2) joined by a cell switch: each
// node's transmit links feed a switch ingress port and its receive side
// subscribes to the matching egress port. The switch's links share the
// cluster's Options.Link configuration (rate, skew, faults), so a cell
// crosses two link hops — node→switch and switch→node — as it would in
// a real switched ATM fabric.
func NewCluster(opt Options, n int) *Cluster {
	if n < 2 {
		panic("core: a cluster needs at least 2 nodes")
	}
	opt = opt.withDefaults()
	e := sim.NewEngine(opt.Seed)
	cl := &Cluster{Eng: e, Opt: opt}
	for i := 0; i < n; i++ {
		cl.Nodes = append(cl.Nodes, buildNode(e, opt, fmt.Sprintf("n%d", i), proto.HostAddr(i+1)))
	}
	cl.Fabric = atm.NewSwitch(e, n, atm.SwitchConfig{
		Width:         opt.stripeWidth(),
		Link:          opt.Link,
		QueueCells:    opt.FabricQueueCells,
		MarkThreshold: opt.FabricMarkThreshold,
	})
	for i, nd := range cl.Nodes {
		pt := cl.Fabric.Port(i)
		nd.Board.AttachTxLinks(pt.Ingress().Links())
		nd.Board.AttachRxLinks(pt.Egress())
	}
	cl.Fabric.RegisterMetrics(opt.Metrics, "fabric")
	cl.registerEngineDiag()
	return cl
}

// allocVCI hands out fresh VCIs — "a fairly abundant resource" (§3.1).
func (cl *Cluster) allocVCI() atm.VCI {
	cl.nextID++
	return atm.VCI(100 + cl.nextID)
}

// Events returns the cumulative executed-event count of the
// simulation — the denominator for events/sec measurements.
func (cl *Cluster) Events() uint64 { return cl.Eng.Events() }

// registerEngineDiag registers the engine's event count as a diagnostic
// metric (SampleDiag): it measures the execution substrate, not the
// simulated system, so it stays out of canonical snapshots.
func (cl *Cluster) registerEngineDiag() {
	if r := cl.Opt.Metrics; r != nil {
		e := cl.Eng
		r.SampleDiag("engine/events", metrics.KindCounter, func() int64 { return int64(e.Events()) })
	}
}

// Shutdown tears the simulation down, terminating every proc, and
// releases every node's physical memory, cache line store and board
// dual-port memory.
func (cl *Cluster) Shutdown() {
	cl.Eng.Shutdown()
	for _, n := range cl.Nodes {
		n.Board.Release()
		n.Host.Release()
	}
}

// CheckPools is the quiesce check (sim.Engine.CheckPools) over every
// node: each record pool's count of records out must equal the records
// live state holds — 0 on a clean drain, one per open reassembly,
// retained driver message or unacknowledged RDP copy otherwise (DESIGN
// §7 "Records"). Every experiment driver that drains the engine runs it.
func (cl *Cluster) CheckPools() error {
	err := cl.Eng.CheckPools()
	for _, n := range cl.Nodes {
		err = errors.Join(err, n.Host.CheckPools(), n.Board.CheckPools(), n.Drv.CheckPools(), n.IP.CheckPools(), n.RDP.CheckPools())
	}
	return err
}

// checkPair rejects a node pair that is out of range or joins a node to
// itself.
func (cl *Cluster) checkPair(from, to int) error {
	if from < 0 || from >= len(cl.Nodes) || to < 0 || to >= len(cl.Nodes) {
		return fmt.Errorf("core: node pair (%d,%d) out of range [0,%d)", from, to, len(cl.Nodes))
	}
	if from == to {
		return fmt.Errorf("core: cannot open a pair from node %d to itself", from)
	}
	return nil
}

// OpenPair opens a unidirectional connection path from node `from` to
// node `to` for the given protocol: it allocates a fresh VCI, installs
// the switch route (when a fabric is present — a duplicate VCI on the
// switch is an error, never a silent re-route), and opens the matching
// sessions on both nodes. tx is the session to Push on node `from`; rx
// is the receiving session on node `to` (install a handler on it).
// Reverse traffic needs its own pair, as in the paper's ping-pong
// apparatus.
func (cl *Cluster) OpenPair(from, to int, kind ProtoKind) (tx, rx xkernel.Session, err error) {
	if err := cl.checkPair(from, to); err != nil {
		return nil, nil, err
	}
	v := cl.allocVCI()
	if cl.Fabric != nil {
		if err := cl.Fabric.Route(v, to); err != nil {
			return nil, nil, err
		}
	}
	src, dst := cl.Nodes[from], cl.Nodes[to]
	switch kind {
	case ATMRaw:
		if tx, err = src.Raw.Open(proto.RawOpen{VCI: v}); err != nil {
			return nil, nil, err
		}
		rx, err = dst.Raw.Open(proto.RawOpen{VCI: v})
	default:
		if tx, err = src.UDP.Open(proto.UDPOpen{Remote: dst.Addr, VCI: v, SrcPort: uint16(from + 1), DstPort: uint16(to + 1), Checksum: cl.Opt.Checksum}); err != nil {
			return nil, nil, err
		}
		rx, err = dst.UDP.Open(proto.UDPOpen{Remote: src.Addr, VCI: v, SrcPort: uint16(to + 1), DstPort: uint16(from + 1), Checksum: cl.Opt.Checksum})
	}
	return tx, rx, err
}

// OpenPairRDP opens a reliable RDP path from node `from` to node `to`.
// Unlike the unidirectional OpenPair kinds, RDP is bidirectional on its
// one VCI — data cells flow forward and acknowledgement cells flow back
// on the same circuit — so the fabric route is installed per (input
// port, VCI): cells entering at `from` go to `to` and cells entering at
// `to` (the acks) go to `from`, exactly how a real ATM switch's
// per-port VCI tables work. o.Remote and o.VCI are filled in here; the
// caller sets the transport knobs (Window, Adaptive, …). tx is the
// sending session on `from`, rx the delivering session on `to`.
func (cl *Cluster) OpenPairRDP(from, to int, o proto.RDPOpen) (tx, rx xkernel.Session, err error) {
	if err := cl.checkPair(from, to); err != nil {
		return nil, nil, err
	}
	v := cl.allocVCI()
	if cl.Fabric != nil {
		if err := cl.Fabric.RouteFrom(from, v, to); err != nil {
			return nil, nil, err
		}
		if err := cl.Fabric.RouteFrom(to, v, from); err != nil {
			return nil, nil, err
		}
	}
	src, dst := cl.Nodes[from], cl.Nodes[to]
	so, do := o, o
	so.Remote, so.VCI = dst.Addr, v
	do.Remote, do.VCI = src.Addr, v
	if tx, err = src.RDP.Open(so); err != nil {
		return nil, nil, err
	}
	rx, err = dst.RDP.Open(do)
	return tx, rx, err
}

// RunLatency measures the average round-trip time between nodes from
// and to for messages of the given size, as in Table 1: a ping-pong
// between test programs linked into the kernel. The first round is a
// warm-up and is excluded.
func (cl *Cluster) RunLatency(from, to int, kind ProtoKind, msgSize, rounds int) (time.Duration, error) {
	ftx, frx, err := cl.OpenPair(from, to, kind)
	if err != nil {
		return 0, err
	}
	rtx, rrx, err := cl.OpenPair(to, from, kind) // reverse direction
	if err != nil {
		return 0, err
	}
	src, dst := cl.Nodes[from], cl.Nodes[to]
	// The remote node echoes every message back on the reverse session,
	// gathering it into a scratch buffer that allocFrom copies into
	// simulated memory before the push yields.
	var scratch []byte
	frx.SetHandler(func(p *sim.Proc, m *msg.Message) {
		data, err := m.AppendBytes(scratch[:0])
		if err != nil {
			return
		}
		scratch = data
		reply, freeReply, err := allocFrom(dst.Host.Kernel, data)
		if err != nil {
			return
		}
		if err := rtx.Push(p, reply); err != nil {
			freeReply()
			return
		}
		dst.Drv.Flush(p)
		freeReply()
	})

	// The whole measuring apparatus — the experiment proc, the reply
	// condition, and the reverse receive session rrx — lives on node
	// `from`.
	var rtts []time.Duration
	gotReply := sim.NewCond(cl.Eng)
	replied := false
	rrx.SetHandler(func(p *sim.Proc, m *msg.Message) {
		replied = true
		gotReply.Broadcast()
	})
	done := false
	cl.Eng.Go("latency-experiment", func(p *sim.Proc) {
		data := messagePattern(msgSize)
		for i := 0; i < rounds+1; i++ {
			m, free, err := allocFrom(src.Host.Kernel, data)
			if err != nil {
				return
			}
			replied = false
			start := p.Now()
			if err := ftx.Push(p, m); err != nil {
				free()
				return
			}
			for !replied {
				gotReply.Wait(p)
			}
			if i > 0 { // skip warm-up
				rtts = append(rtts, time.Duration(p.Now()-start))
			}
			src.Drv.Flush(p)
			free()
		}
		done = true
	})
	cl.Eng.Run()
	if !done || len(rtts) == 0 {
		return 0, fmt.Errorf("core: latency experiment did not complete (%d/%d rounds)", len(rtts), rounds)
	}
	var total time.Duration
	for _, r := range rtts {
		total += r
	}
	return total / time.Duration(len(rtts)), cl.CheckPools()
}

// RunReceiveThroughput reproduces the Figure 2/3 apparatus on the given
// node: its board generates fictitious UDP/IP traffic of the given
// message size (cells paced at the 622 Mbps channel's payload rate),
// and the measured quantity is the rate at which the node's stack
// delivers message payload to the test program. count messages are
// generated; the first is warm-up.
func (cl *Cluster) RunReceiveThroughput(node, msgSize, count int) (float64, error) {
	if node < 0 || node >= len(cl.Nodes) {
		return 0, fmt.Errorf("core: node %d out of range [0,%d)", node, len(cl.Nodes))
	}
	nd := cl.Nodes[node]
	remote := cl.Nodes[(node+1)%len(cl.Nodes)]
	v := cl.allocVCI()
	sess, err := nd.UDP.Open(proto.UDPOpen{Remote: remote.Addr, VCI: v, SrcPort: 2, DstPort: 1, Checksum: cl.Opt.Checksum})
	if err != nil {
		return 0, err
	}
	payload := make([]byte, msgSize)
	for i := range payload {
		payload[i] = byte(i*13 + 5)
	}
	// The generator pulls one message at a time. Each carries a distinct
	// IP ident so a dropped fragment under overload cannot corrupt a
	// later message's reassembly.
	var frags proto.UDPFragments
	src := func(i int) [][]byte {
		return frags.Build(payload, 1, 2, remote.Addr, nd.Addr, cl.Opt.MTU, cl.Opt.Checksum, uint32(1000+i))
	}

	received := 0
	var firstDone, lastDone sim.Time
	sess.SetHandler(func(p *sim.Proc, m *msg.Message) {
		if m.Len() != msgSize {
			return
		}
		received++
		if received == 1 {
			firstDone = p.Now()
		}
		lastDone = p.Now()
	})
	nd.Board.StartFictitious(v, count, src, 0, 1)
	// Generous horizon: the slowest plausible rate is ~20 Mbps.
	horizon := cl.Eng.Now().Add(time.Duration(count) * (time.Duration(msgSize)*8*50*time.Nanosecond + 10*time.Millisecond))
	cl.Eng.RunUntil(horizon)
	nd.Board.StopFictitious()
	cl.Eng.Run()
	if received < 2 {
		return 0, fmt.Errorf("core: receive experiment delivered %d/%d messages", received, count)
	}
	return stats.Mbps(int64(received-1)*int64(msgSize), time.Duration(lastDone-firstDone)), cl.CheckPools()
}
