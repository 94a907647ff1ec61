package core

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/hostsim"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// LossSweep configures the fault-plane experiment: RDP traffic pushed
// across the two-host testbed while both directions' links run a
// Gilbert–Elliott burst-loss injector, swept over mean loss rates.
// Every rate runs twice with the same seed and fault stream: over the
// fixed-timer transport and over the adaptive one (RTT-estimated
// retransmission timer, AIMD congestion window), side by side. The
// zero value gets sensible defaults from withDefaults.
type LossSweep struct {
	// Rates are the mean burst cell-loss rates to sweep (default
	// DefaultLossRates). A rate of 0 is the fault-free control point.
	Rates []float64
	// BurstLen is the mean number of cells lost per loss burst
	// (default 4) — bursts take out adjacent cells of one PDU,
	// including its Last cell, the case that strands reassembly state.
	BurstLen float64
	// CorruptProb and DupProb add per-cell payload corruption and
	// duplication on top of the loss process (default 0), exercising
	// the board's CRC check and duplicate filter.
	CorruptProb float64
	DupProb     float64
	// Messages and MessageBytes shape the offered load (default 32
	// messages of 4096 bytes; keep MessageBytes under the MTU so each
	// RDP segment is one IP datagram).
	Messages     int
	MessageBytes int
	// Window is the RDP send window in segments (default 4).
	Window int
	// RetransmitTimeout is RDP's base retransmission interval
	// (default 2 ms).
	RetransmitTimeout time.Duration
	// MaxRetries caps RDP's consecutive barren timeout rounds
	// (default 32): the sweep must terminate even at loss rates that
	// kill a session, and a terminated session is itself a data point.
	MaxRetries int
	// ReasmTimeout bounds how long the receiving board holds a partial
	// reassembly (default 5 ms).
	ReasmTimeout time.Duration
	// Seed seeds every point's fresh simulation (0 selects
	// DefaultSeed; ZeroSeed requests a literal zero).
	Seed int64
}

// DefaultLossRates is the swept mean cell-loss grid: a clean control
// point, the acceptance floor 1e-3, and rates up through loss heavy
// enough that most PDUs need at least one retransmission.
func DefaultLossRates() []float64 {
	return []float64{0, 0.001, 0.005, 0.01, 0.02, 0.05}
}

func (c LossSweep) withDefaults() LossSweep {
	if c.Rates == nil {
		c.Rates = DefaultLossRates()
	}
	if c.BurstLen == 0 {
		c.BurstLen = 4
	}
	if c.Messages == 0 {
		c.Messages = 32
	}
	if c.MessageBytes == 0 {
		c.MessageBytes = 4096
	}
	if c.Window == 0 {
		c.Window = 4
	}
	if c.RetransmitTimeout == 0 {
		c.RetransmitTimeout = 2 * time.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 32
	}
	if c.ReasmTimeout == 0 {
		c.ReasmTimeout = 5 * time.Millisecond
	}
	return c
}

// LossSweepPoint is one swept rate's outcome. Every field is a fixed
// function of (config, seed): two runs with the same seed must marshal
// to identical JSON. No maps, so the encoding order is stable.
type LossSweepPoint struct {
	MeanLoss float64 `json:"mean_loss"`
	BurstLen float64 `json:"burst_len"`

	// End-to-end outcome.
	Sent        int     `json:"sent"`
	Delivered   int     `json:"delivered"`
	Corrupt     int     `json:"corrupt"` // deliveries failing byte-exact verification
	Failed      int64   `json:"failed"`  // sessions closed by ErrMaxRetries
	GoodputMbps float64 `json:"goodput_mbps"`
	ElapsedNS   int64   `json:"elapsed_ns"` // first push to last delivery

	// RDP recovery effort.
	Retransmits int64 `json:"retransmits"`
	Timeouts    int64 `json:"timeouts"`

	// Injected faults, summed over both directions' links.
	CellsOffered    int64 `json:"cells_offered"`
	CellsLost       int64 `json:"cells_lost"`
	CellsCorrupted  int64 `json:"cells_corrupted"`
	CellsDuplicated int64 `json:"cells_duplicated"`

	// Receiver-side degradation and reclamation.
	PDUsTimedOut   int64 `json:"pdus_timed_out"` // reassemblies reclaimed by timeout
	RxAbortMarkers int64 `json:"rx_abort_markers"`
	RxAborted      int64 `json:"rx_aborted"`       // driver-side partial-PDU discards
	PDUsCRCDropped int64 `json:"pdus_crc_dropped"` // corrupt PDUs caught by the AAL5 CRC
	DupCellsRej    int64 `json:"dup_cells_rejected"`

	// Leak check: both must be zero at exit on every board.
	OpenReassemblies int `json:"open_reassemblies"`
	HeldReasmBufs    int `json:"held_reasm_bufs"`

	// Adaptive is the same rate rerun over the adaptive transport.
	Adaptive LossSweepAdaptive `json:"adaptive"`
}

// LossSweepAdaptive is the adaptive-transport column of one swept rate:
// the same workload, seed, and fault stream recovered by the
// RTT-estimated timer instead of the fixed backoff schedule.
type LossSweepAdaptive struct {
	Delivered   int     `json:"delivered"`
	Failed      int64   `json:"failed"`
	GoodputMbps float64 `json:"goodput_mbps"`
	ElapsedNS   int64   `json:"elapsed_ns"`
	Retransmits int64   `json:"retransmits"`
	Timeouts    int64   `json:"timeouts"`
	FastRetx    int64   `json:"fast_retx"`
	RTTSamples  int64   `json:"rtt_samples"`
}

// LossSweepResult is the whole sweep, JSON-stable for a fixed seed.
type LossSweepResult struct {
	Seed         int64            `json:"seed"`
	Messages     int              `json:"messages"`
	MessageBytes int              `json:"message_bytes"`
	Window       int              `json:"window"`
	MaxRetries   int              `json:"max_retries"`
	Points       []LossSweepPoint `json:"points"`
}

// lossPayload builds message i's payload: distinct per message and
// verifiable byte for byte at the receiver.
func lossPayload(n, i int) []byte {
	data := make([]byte, n)
	for j := range data {
		data[j] = byte(j*7 + i*131 + 3)
	}
	return data
}

// Result assembles the sweep's report from its points, one per rate in
// c's order.
func (c LossSweep) Result(points []LossSweepPoint) *LossSweepResult {
	c = c.withDefaults()
	return &LossSweepResult{
		Seed:         resolveSeed(c.Seed),
		Messages:     c.Messages,
		MessageBytes: c.MessageBytes,
		Window:       c.Window,
		MaxRetries:   c.MaxRetries,
		Points:       points,
	}
}

// RunLossPoint drives one rate of the fault-plane capstone: it builds a
// fresh testbed whose links (both directions, independent deterministic
// streams) run the configured burst-loss injector, opens one RDP
// connection A→B, pushes the configured messages, and runs the
// simulation to quiescence — MaxRetries on the sender and ReasmTimeout
// on the boards guarantee the event queue drains even when every cell
// is lost. The receiver verifies each delivery byte for byte. The rate
// then reruns over the adaptive transport for the point's Adaptive
// column. Each point is an independent, seeded simulation, so rates may
// run in any order or in parallel.
//
// Correctness bugs — corrupt deliveries, leaked reassembly state, an
// incomplete sender — return an error; a session killed by the retry
// cap at a brutal rate is a legitimate outcome and is recorded in the
// point instead.
func RunLossPoint(cfg LossSweep, rate float64) (LossSweepPoint, error) {
	cfg = cfg.withDefaults()
	pt, _, err := runLossRun(cfg, rate, false)
	if err != nil {
		return pt, err
	}
	apt, ast, err := runLossRun(cfg, rate, true)
	if err != nil {
		return pt, fmt.Errorf("adaptive column: %w", err)
	}
	pt.Adaptive = LossSweepAdaptive{
		Delivered:   apt.Delivered,
		Failed:      apt.Failed,
		GoodputMbps: apt.GoodputMbps,
		ElapsedNS:   apt.ElapsedNS,
		Retransmits: apt.Retransmits,
		Timeouts:    apt.Timeouts,
		FastRetx:    ast.FastRetx,
		RTTSamples:  ast.RTTSamples,
	}
	return pt, nil
}

func runLossRun(cfg LossSweep, rate float64, adaptive bool) (LossSweepPoint, proto.RDPStats, error) {
	pt := LossSweepPoint{MeanLoss: rate, BurstLen: cfg.BurstLen, Sent: cfg.Messages}

	var fc *fault.Config
	if rate > 0 || cfg.CorruptProb > 0 || cfg.DupProb > 0 {
		fc = &fault.Config{
			CorruptProb: cfg.CorruptProb,
			DupProb:     cfg.DupProb,
		}
		if rate > 0 {
			fc.Loss = fault.BurstLoss(rate, cfg.BurstLen)
		}
	}
	tb := NewTestbed(Options{
		Profile: hostsim.DEC3000_600(),
		// Small receive buffers make a PDU span several of them, so a
		// reassembly cut down mid-PDU has already streamed buffers to
		// the host — exercising the abort-marker path, not just the
		// silent board-side reclaim.
		Driver: driver.Config{Cache: driver.CacheNone, RxBufBytes: 2048},
		Board: board.Config{
			ReasmTimeout:     cfg.ReasmTimeout,
			CheckCRC:         true,
			RejectDuplicates: true,
		},
		Link: atm.LinkConfig{Fault: fc},
		Seed: cfg.Seed,
	})
	defer tb.Shutdown()

	v := tb.allocVCI()
	txSess, err := tb.A.RDP.Open(proto.RDPOpen{
		Remote: tb.B.Addr, VCI: v, Window: cfg.Window,
		RetransmitTimeout: cfg.RetransmitTimeout, MaxRetries: cfg.MaxRetries,
		Adaptive: adaptive,
	})
	if err != nil {
		return pt, proto.RDPStats{}, err
	}
	rxSess, err := tb.B.RDP.Open(proto.RDPOpen{Remote: tb.A.Addr, VCI: v, Window: cfg.Window, Adaptive: adaptive})
	if err != nil {
		return pt, proto.RDPStats{}, err
	}

	var start, last sim.Time
	rxSess.SetHandler(func(p *sim.Proc, m *msg.Message) {
		data, err := m.Bytes()
		if err != nil || !bytes.Equal(data, lossPayload(cfg.MessageBytes, pt.Delivered)) {
			pt.Corrupt++
			return
		}
		pt.Delivered++
		last = p.Now()
	})

	senderDone := false
	var pushErr error
	tb.Eng.Go("loss-sweep-sender", func(p *sim.Proc) {
		start = p.Now()
		for i := 0; i < cfg.Messages; i++ {
			m, free, err := allocFrom(tb.A.Host.Kernel, lossPayload(cfg.MessageBytes, i))
			if err != nil {
				pushErr = err
				return
			}
			if err := txSess.Push(p, m); err != nil {
				free()
				if errors.Is(err, proto.ErrMaxRetries) {
					break // the retry cap killed the session: a valid data point
				}
				pushErr = err
				return
			}
			tb.A.Drv.Flush(p)
			free()
		}
		txSess.(proto.WaitAckedSession).WaitAcked(p)
		senderDone = true
	})
	// MaxRetries and ReasmTimeout bound every timer, so the run
	// quiesces on its own even at 100% loss.
	tb.Eng.Run()

	if pushErr != nil {
		return pt, proto.RDPStats{}, pushErr
	}
	if !senderDone {
		return pt, proto.RDPStats{}, fmt.Errorf("sender wedged after %d deliveries", pt.Delivered)
	}
	if pt.Corrupt != 0 {
		return pt, proto.RDPStats{}, fmt.Errorf("%d corrupt deliveries (loss must surface as missing PDUs, never damaged ones)", pt.Corrupt)
	}

	st := tb.A.RDP.Stats()
	pt.Retransmits = st.Retransmits
	pt.Timeouts = st.Timeouts
	pt.Failed = st.Failed
	if pt.Failed == 0 && pt.Delivered != pt.Sent {
		return pt, st, fmt.Errorf("healthy session delivered %d/%d", pt.Delivered, pt.Sent)
	}
	if pt.Delivered > 0 {
		pt.ElapsedNS = int64(last - start)
		pt.GoodputMbps = stats.Mbps(int64(pt.Delivered)*int64(cfg.MessageBytes), time.Duration(pt.ElapsedNS))
	}

	// Every cell is accounted for at quiesce: each link delivered or
	// lost every cell it accepted or cloned, and its injector saw
	// exactly those cells.
	for _, g := range []*atm.StripeGroup{tb.AB, tb.BA} {
		ls, fs := g.Stats(), g.FaultStats()
		if ls.Sent+ls.Duplicated != ls.Delivered+ls.Lost ||
			fc != nil && (fs.Cells != ls.Sent || fs.Dropped != ls.Lost || fs.Duplicated != ls.Duplicated) {
			return pt, st, fmt.Errorf("cells not conserved at quiesce: link %+v, injector %+v", ls, fs)
		}
		pt.CellsOffered += fs.Cells
		pt.CellsLost += fs.Dropped
		pt.CellsCorrupted += fs.Corrupted
		pt.CellsDuplicated += fs.Duplicated
	}
	for _, nd := range []*Node{tb.A, tb.B} {
		bs := nd.Board.Stats()
		pt.PDUsTimedOut += bs.PDUsTimedOut
		pt.RxAbortMarkers += bs.RxAbortMarkers
		pt.PDUsCRCDropped += bs.PDUsCRCDropped
		pt.DupCellsRej += bs.CellsDuplicate
		pt.RxAborted += nd.Drv.Stats().RxAborted
		pt.OpenReassemblies += nd.Board.OpenReassemblies()
		pt.HeldReasmBufs += nd.Board.HeldReasmBufs()
	}
	if pt.OpenReassemblies != 0 || pt.HeldReasmBufs != 0 {
		return pt, st, fmt.Errorf("leaked reassembly state at exit: open=%d held=%d", pt.OpenReassemblies, pt.HeldReasmBufs)
	}
	return pt, st, nil
}
