package core

import (
	"time"

	"repro/internal/atm"
	"repro/internal/proto"
	"repro/internal/workload"
	"repro/internal/xkernel"
)

// IncastRDP configures the reliable-transport incast experiment: the
// fan-in workload carried over RDP instead of raw UDP, so cell loss in
// the fabric becomes retransmission work instead of silent shortfall.
// The congestion knobs of the fabric itself (queue depth, ECN mark
// threshold) are cluster build-time options (Options.FabricQueueCells,
// Options.FabricMarkThreshold).
type IncastRDP struct {
	// Workload is the fan-in traffic pattern. Gap 0 with Stagger 0 is
	// the unpaced incast-collapse regime.
	Workload workload.FanIn
	// Adaptive selects the adaptive transport (RTT-estimated timer,
	// AIMD congestion window, ECN echo). False runs the legacy
	// fixed-timer go-back-N.
	Adaptive bool
	// Window is the RDP flow window in segments (default 8).
	Window int
	// RetransmitTimeout seeds the retransmit timer (default 2 ms); for
	// adaptive sessions it is only the pre-sample RTO.
	RetransmitTimeout time.Duration
	// MaxRetries, when positive, fails a session after that many barren
	// timeout rounds. 0 retries until the horizon — the right setting
	// for asking "does the transport eventually deliver everything?".
	MaxRetries int
	// Horizon bounds the run in simulated time (default: generous —
	// aggregate drain at 10 Mbps plus all pacing, plus 500 ms of
	// recovery headroom). Sessions still outstanding at the horizon
	// count their undelivered messages as shortfall.
	Horizon time.Duration
}

// IncastClient is one sender's view of an incast run: delivery counts
// measured at the server, transport counters from the client's own node.
type IncastClient struct {
	Client    int `json:"client"`
	Sent      int `json:"sent"`      // messages pushed into the transport
	Delivered int `json:"delivered"` // messages verified at the server
	// Shortfall is Messages − Delivered: what the workload intended but
	// the server never saw. Zero for every client is the lossless bar.
	Shortfall   int     `json:"shortfall"`
	Acked       bool    `json:"acked"` // sender drained its window before the horizon
	Retransmits int64   `json:"retransmits"`
	Timeouts    int64   `json:"timeouts"`
	FastRetx    int64   `json:"fast_retx"`
	EcnBackoffs int64   `json:"ecn_backoffs"`
	RTTSamples  int64   `json:"rtt_samples"`
	Mbps        float64 `json:"mbps"`
}

// IncastResult is the outcome of a reliable incast run.
type IncastResult struct {
	Adaptive bool `json:"adaptive"`
	// OfferedMbps is the nominal aggregate offered load: what the
	// clients would emit unconstrained by the transport, message bits
	// over the per-message cycle (payload serialization at the striped
	// channel rate, plus the pacing gap), summed over clients.
	OfferedMbps float64 `json:"offered_mbps"`
	// GoodputMbps is the server-side verified-delivery rate over the
	// first-to-last delivery window.
	GoodputMbps float64 `json:"goodput_mbps"`
	Sent        int     `json:"sent"`
	Delivered   int     `json:"delivered"`
	Shortfall   int     `json:"shortfall"`
	Corrupt     int     `json:"corrupt"`
	// Transport/fabric congestion counters, aggregated.
	Retransmits     int64          `json:"retransmits"`
	Timeouts        int64          `json:"timeouts"`
	FastRetx        int64          `json:"fast_retx"`
	EcnEchoed       int64          `json:"ecn_echoed"`
	EcnBackoffs     int64          `json:"ecn_backoffs"`
	SwitchForwarded int64          `json:"switch_forwarded"`
	SwitchDropped   int64          `json:"switch_dropped"`
	SwitchMarked    int64          `json:"switch_marked"`
	Clients         []IncastClient `json:"clients"`
	Elapsed         time.Duration  `json:"elapsed_ns"`
}

// Lossless reports whether every intended message was verified at the
// server — the bar the adaptive transport is asked to clear in the
// unpaced collapse regime.
func (r *IncastResult) Lossless() bool { return r.Shortfall == 0 && r.Corrupt == 0 }

// offeredMbps computes the nominal aggregate offered load for the
// workload over a channel whose cell time (per stripe link) is ct with
// width links: message payload bits over serialization time plus gap,
// times the client count.
func offeredMbps(w workload.FanIn, ct time.Duration, width int) float64 {
	wire := time.Duration(atm.CellsFor(w.MessageBytes)) * ct / time.Duration(width)
	cycle := wire + w.Gap
	if cycle <= 0 {
		return 0
	}
	per := float64(w.MessageBytes*8) / cycle.Seconds() / 1e6
	return per * float64(w.Clients)
}

// RunIncastRDP drives the fan-in workload over reliable RDP: nodes
// 1..Clients each push w.Workload.Messages messages at node 0, each on
// its own bidirectional RDP circuit (OpenPairRDP), and the server
// verifies every delivery byte for byte. Senders drain their windows
// (WaitAcked) before declaring completion; whatever is still
// undelivered at the horizon is reported loudly as per-client
// shortfall, never silently absorbed.
func (cl *Cluster) RunIncastRDP(w IncastRDP) (*IncastResult, error) {
	open := proto.RDPOpen{
		Window:            w.Window,
		RetransmitTimeout: w.RetransmitTimeout,
		MaxRetries:        w.MaxRetries,
		Adaptive:          w.Adaptive,
	}
	run, err := cl.runFanIn(w.Workload, fanInTransport{
		name:     "incast",
		open:     func(c int) (xkernel.Session, xkernel.Session, error) { return cl.OpenPairRDP(c+1, 0, open) },
		reliable: true,
		horizon:  w.Horizon,
	})
	if err != nil {
		return nil, err
	}
	fw := run.w

	res := &IncastResult{Adaptive: w.Adaptive, Corrupt: run.corrupt}
	lk := cl.Fabric.Port(0).Ingress().Links()[0]
	res.OfferedMbps = offeredMbps(fw, lk.CellTime(), len(cl.Fabric.Port(0).Ingress().Links()))
	for c := 0; c < fw.Clients; c++ {
		a := run.perClient.Node(c)
		st := cl.Nodes[c+1].RDP.Stats()
		ic := IncastClient{
			Client:      c,
			Sent:        run.pushed[c],
			Delivered:   a.Messages,
			Shortfall:   fw.Messages - a.Messages,
			Acked:       run.done[c],
			Retransmits: st.Retransmits,
			Timeouts:    st.Timeouts,
			FastRetx:    st.FastRetx,
			EcnBackoffs: st.EcnBackoffs,
			RTTSamples:  st.RTTSamples,
			Mbps:        a.Mbps(),
		}
		res.Clients = append(res.Clients, ic)
		res.Sent += ic.Sent
		res.Delivered += ic.Delivered
		res.Shortfall += ic.Shortfall
		res.Retransmits += ic.Retransmits
		res.Timeouts += ic.Timeouts
		res.FastRetx += ic.FastRetx
		res.EcnBackoffs += ic.EcnBackoffs
	}
	res.EcnEchoed = cl.Nodes[0].RDP.Stats().EcnEchoed
	agg := run.perClient.Aggregate()
	res.GoodputMbps = agg.Mbps()
	res.Elapsed = agg.Last - agg.First
	ss := cl.Fabric.Stats()
	res.SwitchForwarded = ss.Forwarded
	res.SwitchDropped = ss.Dropped
	res.SwitchMarked = ss.Marked
	return res, nil
}

// RunIncastRDP builds a switched cluster of Workload.Clients+1 nodes
// with the given options and runs the reliable incast experiment.
func RunIncastRDP(opt Options, w IncastRDP) (*IncastResult, error) {
	n := w.Workload.Clients
	if n == 0 {
		n = workload.DefaultFanIn().Clients
		w.Workload.Clients = n
	}
	// Reliable incast depends on reassembly resynchronization: sustained
	// overload aborts PDUs mid-stream, and without the discard-to-Last
	// rule a single orphaned Last cell wedges its VCI permanently
	// (board.Config.ReasmResync). Both transports get it — the transport
	// is the experiment's variable, the board is not.
	opt.Board.ReasmResync = true
	cl := NewCluster(opt, n+1)
	defer cl.Shutdown()
	return cl.RunIncastRDP(w)
}
