package core

import (
	"fmt"
	"time"

	"repro/internal/atm"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xkernel"
)

// FanInClient is one sender's view of a fan-in run, as measured at the
// server.
type FanInClient struct {
	Client    int // client index (node Client+1 in the cluster)
	Sent      int // messages the client pushed
	Delivered int // messages the server received intact
	// Shortfall is Sent − Delivered: messages the client offered that
	// the server never saw. Over the unreliable UDP stack these are gone
	// for good — the per-client number makes the incast victim visible
	// instead of hiding inside the aggregate.
	Shortfall int
	Mbps      float64 // server-side goodput over the client's own window
}

// FanInResult is the outcome of a fan-in run.
type FanInResult struct {
	Workload  workload.FanIn
	Clients   []FanInClient
	Sent      int // aggregate messages pushed
	Delivered int // aggregate messages received intact
	Shortfall int // aggregate messages lost in flight (Sent − Delivered)
	// Corrupt counts deliveries whose payload failed byte-for-byte
	// verification. Cell loss in the fabric must surface as *missing*
	// messages (the AAL5 trailer check and the UDP checksum discard
	// damaged PDUs), so any non-zero value here is a correctness bug,
	// not congestion.
	Corrupt int
	// AggregateMbps is the server-side goodput over the whole run's
	// first-to-last delivery window.
	AggregateMbps float64
	// SwitchDropped and SwitchNoRoute are the fabric's cell-level loss
	// counters: output-queue overflows (the incast signature) and cells
	// with no VCI route. SwitchForwarded counts cells that crossed the
	// fabric.
	SwitchDropped   int64
	SwitchNoRoute   int64
	SwitchForwarded int64
	// Ports holds each fabric port's own counters (indexed by port
	// number; port 0 is the server's). The incast signature lives here:
	// under overload, port 0's Dropped and HighWater dominate while the
	// client ports stay clean.
	Ports []FanInPort
	// Elapsed is the server's first-to-last delivery window.
	Elapsed time.Duration
}

// FanInPort is one fabric port's cell-level view of a fan-in run.
type FanInPort struct {
	Port int
	atm.SwitchPortStats
}

// RunFanIn drives the incast workload: nodes 1..Clients each push
// w.Messages messages of w.MessageBytes at node 0 over UDP/IP through
// the fabric, and the server verifies every delivery byte for byte
// (real-data verification, DESIGN §4). Per-client and aggregate
// goodput are measured at the server. With w.Gap == 0 every client
// blasts at full rate — w.Clients times the server channel's capacity
// — and the switch's bounded output queue overflows; the drops are
// counted in the result, never silently absorbed.
//
// The cluster must have been built by NewCluster (a fabric is
// required) with at least w.Clients+1 nodes. A zero w.Clients is
// defaulted to len(Nodes)-1.
func (cl *Cluster) RunFanIn(w workload.FanIn) (*FanInResult, error) {
	t := fanInTransport{
		name: "fanin",
		open: func(c int) (xkernel.Session, xkernel.Session, error) { return cl.OpenPair(c+1, 0, UDPIP) },
	}
	// End-to-end delivery latency sketch (push → verified delivery, µs),
	// registered only when the cluster carries a registry.
	if r := cl.Opt.Metrics; r != nil {
		t.latency = r.Quantiles("fanin/delivery_latency_us", 0.5, 0.9, 0.99)
	}
	run, err := cl.runFanIn(w, t)
	if err != nil {
		return nil, err
	}
	w = run.w
	for c, done := range run.done {
		if !done {
			return nil, fmt.Errorf("core: fan-in incomplete: client %d did not finish", c)
		}
	}

	res := &FanInResult{Workload: w, Sent: w.Clients * w.Messages, Corrupt: run.corrupt}
	for c := 0; c < w.Clients; c++ {
		a := run.perClient.Node(c)
		res.Clients = append(res.Clients, FanInClient{
			Client:    c,
			Sent:      w.Messages,
			Delivered: a.Messages,
			Shortfall: w.Messages - a.Messages,
			Mbps:      a.Mbps(),
		})
		res.Delivered += a.Messages
		res.Shortfall += w.Messages - a.Messages
	}
	agg := run.perClient.Aggregate()
	res.AggregateMbps = agg.Mbps()
	res.Elapsed = agg.Last - agg.First
	ss := cl.Fabric.Stats()
	res.SwitchDropped = ss.Dropped
	res.SwitchNoRoute = ss.NoRoute
	res.SwitchForwarded = ss.Forwarded
	for i := 0; i < cl.Fabric.NumPorts(); i++ {
		res.Ports = append(res.Ports, FanInPort{Port: i, SwitchPortStats: cl.Fabric.Port(i).Stats()})
	}
	return res, nil
}

// fanInTransport is what varies between the fan-in drivers (RunFanIn
// over UDP/IP, RunIncastRDP over RDP): everything else — validation,
// the byte-verified receive handler, the staggered and paced senders,
// the horizon run — is runFanIn.
type fanInTransport struct {
	name string // experiment name, in errors and client proc names
	// open opens client c's circuit to the server (node c+1 → node 0).
	open func(c int) (tx, rx xkernel.Session, err error)
	// reliable senders drain their windows (WaitAcked) before they count
	// as done, and every session closes at the horizon, before the
	// final drain, so the retransmit timers die.
	reliable bool
	// horizon bounds the run in simulated time; 0 selects a drain bound
	// generous for the transport.
	horizon time.Duration
	// latency, when set, observes each delivery's push-to-delivery
	// latency in µs.
	latency *metrics.Sketch
}

// fanInRun is runFanIn's raw outcome: server-side delivery accounting
// and per-client sender state.
type fanInRun struct {
	w         workload.FanIn // the workload with Clients defaulted
	perClient *stats.PerNode
	corrupt   int
	pushed    []int
	done      []bool
}

// runFanIn validates w against the cluster, opens one circuit per
// client over t, and runs the fan-in: nodes 1..Clients each push
// w.Messages messages at node 0, staggered and paced, while the server
// verifies every delivery byte for byte.
func (cl *Cluster) runFanIn(w workload.FanIn, t fanInTransport) (*fanInRun, error) {
	if cl.Fabric == nil {
		return nil, fmt.Errorf("core: %s needs a switched cluster (NewCluster), not a back-to-back testbed", t.name)
	}
	if w.Clients == 0 {
		w.Clients = len(cl.Nodes) - 1
	}
	if w.Clients < 1 || w.Clients > len(cl.Nodes)-1 {
		return nil, fmt.Errorf("core: %d %s clients need a cluster of %d nodes, have %d", w.Clients, t.name, w.Clients+1, len(cl.Nodes))
	}
	if w.MessageBytes < workload.FanInHeaderBytes {
		return nil, fmt.Errorf("core: %s message size %d below header size %d", t.name, w.MessageBytes, workload.FanInHeaderBytes)
	}
	if w.Messages < 1 {
		return nil, fmt.Errorf("core: %s needs at least 1 message per client", t.name)
	}
	if t.horizon == 0 {
		// Unreliable senders never deadlock: uplink FIFOs drain at line
		// rate and the fabric's only congestion point drops rather than
		// blocks, so the slowest plausible drain (~20 Mbps aggregate)
		// plus all pacing always suffices. Reliable senders CAN stall
		// past any fixed drain bound (go-back-N keeps retransmitting
		// into a congested queue), so the horizon is their contract:
		// drain at 10 Mbps plus 500 ms of recovery headroom, and
		// undelivered messages surface as shortfall.
		perBit, slack := 50*time.Nanosecond, 50*time.Millisecond
		if t.reliable {
			perBit, slack = 100*time.Nanosecond, 500*time.Millisecond
		}
		t.horizon = time.Duration(w.TotalBytes())*8*perBit +
			w.Stagger*time.Duration(w.Clients) +
			w.Gap*time.Duration(w.Messages) +
			slack
	}

	run := &fanInRun{
		w:         w,
		perClient: stats.NewPerNode(),
		pushed:    make([]int, w.Clients),
		done:      make([]bool, w.Clients),
	}
	start := cl.Eng.Now()

	// sendAt is written by each client's proc when it pushes a message
	// and read by the server's delivery handler; every (client, message)
	// slot is a distinct location.
	var sendAt [][]sim.Time
	if t.latency != nil {
		sendAt = make([][]sim.Time, w.Clients)
		for c := range sendAt {
			sendAt[c] = make([]sim.Time, w.Messages)
		}
	}

	// One circuit per client: node c+1 → node 0. Each gets its own VCI
	// and switch route, so the server's board runs one AAL5 reassembly
	// per client concurrently (§2.6 strategy two).
	// Every delivery is gathered into one scratch buffer: the handler
	// neither blocks nor keeps the bytes.
	txs := make([]xkernel.Session, w.Clients)
	rxs := make([]xkernel.Session, w.Clients)
	var scratch []byte
	for c := 0; c < w.Clients; c++ {
		tx, rx, err := t.open(c)
		if err != nil {
			return nil, err
		}
		txs[c], rxs[c] = tx, rx
		rx.SetHandler(func(p *sim.Proc, m *msg.Message) {
			data, err := m.AppendBytes(scratch[:0])
			if err != nil {
				run.corrupt++
				return
			}
			scratch = data
			client, seq, ok := w.Verify(data)
			if !ok {
				run.corrupt++
				return
			}
			if sendAt != nil && client < len(sendAt) && seq < len(sendAt[client]) {
				t.latency.Observe((p.Now() - sendAt[client][seq]).Microseconds())
			}
			run.perClient.Observe(client, len(data), time.Duration(p.Now()-start))
		})
	}

	// Per-client sender state on distinct memory locations.
	for c := 0; c < w.Clients; c++ {
		c := c
		nd := cl.Nodes[c+1]
		tx := txs[c]
		cl.Eng.Go(fmt.Sprintf("%s-client-%d", t.name, c), func(p *sim.Proc) {
			if w.Stagger > 0 && c > 0 {
				p.Sleep(time.Duration(c) * w.Stagger)
			}
			var payload []byte // copied into simulated memory before each push
			for m := 0; m < w.Messages; m++ {
				if sendAt != nil {
					sendAt[c][m] = p.Now()
				}
				payload = w.PayloadInto(payload, c, m)
				mm, free, err := allocFrom(nd.Host.Kernel, payload)
				if err != nil {
					return
				}
				if err := tx.Push(p, mm); err != nil {
					free()
					return
				}
				nd.Drv.Flush(p)
				free()
				run.pushed[c]++
				if w.Gap > 0 && m < w.Messages-1 {
					p.Sleep(w.Gap)
				}
			}
			if !t.reliable {
				run.done[c] = true
				return
			}
			s := tx.(proto.WaitAckedSession)
			s.WaitAcked(p)
			run.done[c] = s.Err() == nil
		})
	}

	cl.Eng.RunUntil(cl.Eng.Now().Add(t.horizon))
	if t.reliable {
		for c := 0; c < w.Clients; c++ {
			txs[c].Close()
			rxs[c].Close()
		}
	}
	cl.Eng.Run() // drain in-flight cells and deliveries
	return run, nil
}

// RunFanIn builds a switched cluster of clients+1 nodes and runs the
// full-rate incast: clients senders each push count messages of msgSize
// bytes at node 0 with no pacing gap, the regime where the fan-in
// exceeds the server channel's capacity and the switch queue's drops
// become visible. Use Cluster.RunFanIn with a workload.FanIn for paced
// variants.
func RunFanIn(opt Options, clients, msgSize, count int) (*FanInResult, error) {
	cl := NewCluster(opt, clients+1)
	defer cl.Shutdown()
	return cl.RunFanIn(workload.FanIn{Clients: clients, MessageBytes: msgSize, Messages: count})
}
