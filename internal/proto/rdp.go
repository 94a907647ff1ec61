package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/atm"
	"repro/internal/hostsim"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/xkernel"
)

// RDP is a reliable datagram protocol configured over IP — a go-back-N
// sliding window with cumulative acknowledgements and a payload
// checksum.
//
// It exists to demonstrate the x-kernel property the paper leans on
// ("because the x-kernel supports arbitrary protocols, our approach is
// protocol-independent; it is not tailored to TCP/IP", §1): RDP slots
// into the same graph, runs over the same driver paths and VCIs, and
// turns the simulated network's cell loss into retransmissions instead
// of message loss.
type RDP struct {
	host  *hostsim.Host
	ip    *IP
	stats RDPStats

	// Adaptive telemetry (RegisterAdaptiveMetrics): RTT sample sketch
	// and the live adaptive sessions whose cwnd/ssthresh the gauges sum.
	mRTT     *metrics.Sketch
	adaptive []*rdpSession
}

// RDPStats counts RDP activity.
type RDPStats struct {
	DataSent    int64
	Retransmits int64
	Timeouts    int64
	AcksSent    int64
	Delivered   int64
	OutOfOrder  int64 // data segments discarded awaiting earlier ones
	ChecksumErr int64
	DupAcks     int64
	Failed      int64 // sessions closed by the MaxRetries cap

	// Adaptive-transport counters (RDPOpen.Adaptive sessions only; zero
	// on legacy sessions).
	FastRetx    int64 // retransmissions triggered by the dup-ack threshold
	EcnEchoed   int64 // segments sent carrying the ECE echo
	EcnBackoffs int64 // multiplicative decreases triggered by ECE
	RTTSamples  int64 // round-trip samples accepted by the estimator
}

// ErrMaxRetries is the terminal session error raised when MaxRetries
// consecutive retransmission rounds elapse without any acknowledgement
// progress — the peer is unreachable, and continuing to retransmit into
// a dead link would only add load where capacity is already gone.
var ErrMaxRetries = errors.New("rdp: retransmission limit reached, peer unreachable")

// maxBackoffShift caps the exponential backoff at base << 6 = 64× the
// configured retransmit timeout.
const maxBackoffShift = 6

// NewRDP returns an RDP instance over ip.
func NewRDP(h *hostsim.Host, ip *IP) *RDP { return &RDP{host: h, ip: ip} }

// Stats returns a copy of the counters.
func (r *RDP) Stats() RDPStats { return r.stats }

// RegisterMetrics registers RDP's counters as snapshot-time samples
// under prefix — the retransmit/backoff visibility the telemetry
// plane exists for. A nil registry is a no-op.
func (r *RDP) RegisterMetrics(reg *metrics.Registry, prefix string) {
	if reg == nil {
		return
	}
	s := &r.stats
	reg.Sample(prefix+"/data_sent", metrics.KindCounter, func() int64 { return s.DataSent })
	reg.Sample(prefix+"/retransmits", metrics.KindCounter, func() int64 { return s.Retransmits })
	reg.Sample(prefix+"/timeouts", metrics.KindCounter, func() int64 { return s.Timeouts })
	reg.Sample(prefix+"/acks_sent", metrics.KindCounter, func() int64 { return s.AcksSent })
	reg.Sample(prefix+"/delivered", metrics.KindCounter, func() int64 { return s.Delivered })
	reg.Sample(prefix+"/out_of_order", metrics.KindCounter, func() int64 { return s.OutOfOrder })
	reg.Sample(prefix+"/checksum_err", metrics.KindCounter, func() int64 { return s.ChecksumErr })
	reg.Sample(prefix+"/dup_acks", metrics.KindCounter, func() int64 { return s.DupAcks })
	reg.Sample(prefix+"/failed", metrics.KindCounter, func() int64 { return s.Failed })
}

// RegisterAdaptiveMetrics registers the adaptive transport's telemetry
// under prefix: the ECN/fast-retransmit counters, cwnd/ssthresh gauges
// (summed in segments across live adaptive sessions), and the RTT
// sample sketch. Kept separate from RegisterMetrics so experiments that
// never open an adaptive session keep their exact metric name set (the
// committed BENCH_metrics.json pins it). A nil registry is a no-op.
func (r *RDP) RegisterAdaptiveMetrics(reg *metrics.Registry, prefix string) {
	if reg == nil {
		return
	}
	s := &r.stats
	reg.Sample(prefix+"/fast_retx", metrics.KindCounter, func() int64 { return s.FastRetx })
	reg.Sample(prefix+"/ecn_echoed", metrics.KindCounter, func() int64 { return s.EcnEchoed })
	reg.Sample(prefix+"/ecn_backoffs", metrics.KindCounter, func() int64 { return s.EcnBackoffs })
	reg.Sample(prefix+"/rtt_samples", metrics.KindCounter, func() int64 { return s.RTTSamples })
	reg.Sample(prefix+"/cwnd_segments", metrics.KindGauge, func() int64 {
		var sum int64
		for _, as := range r.adaptive {
			sum += int64(as.cwnd / cwndUnit)
		}
		return sum
	})
	reg.Sample(prefix+"/ssthresh_segments", metrics.KindGauge, func() int64 {
		var sum int64
		for _, as := range r.adaptive {
			sum += int64(as.ssthresh / cwndUnit)
		}
		return sum
	})
	r.mRTT = reg.Quantiles(prefix+"/rtt_us", 0.5, 0.9, 0.99)
}

// ProtoRDP is RDP's protocol number in the IP header.
const ProtoRDP = 27

// RDPHeaderSize is the segment header size.
const RDPHeaderSize = 16

// Segment types.
const (
	rdpData = 0
	rdpAck  = 1
)

// RDPOpen addresses an RDP session.
type RDPOpen struct {
	Remote HostAddr
	VCI    atm.VCI
	// Window is the go-back-N send window in segments (default 8).
	Window int
	// RetransmitTimeout arms the sender's timer (default 2 ms — a few
	// simulated round trips). The effective interval carries ±25%
	// deterministic jitter; with MaxRetries set, sustained silence from
	// the peer additionally doubles it per barren round (capped at 64×).
	RetransmitTimeout time.Duration
	// MaxRetries, when positive, caps consecutive timeout rounds with no
	// word from the peer; beyond it the session fails with ErrMaxRetries
	// (Push returns it, WaitAcked unblocks, Err reports it). 0 (the
	// default) retries forever — over a fragmenting lower layer, long
	// silent streaks are routine for large segments, so the cap is for
	// callers that would rather detect a dead peer than wait it out.
	MaxRetries int

	// Adaptive enables the adaptive transport machinery: an SRTT/RTTVAR
	// RTT estimator (Karn's rule) replacing the fixed jittered timer, a
	// congestion window under Window (slow start, AIMD, fast retransmit
	// at three duplicate acks), and echo of the fabric's CE marks so
	// senders back off before tail drop. Off by default: legacy
	// sessions behave bit-for-bit as before.
	Adaptive bool
}

// Adaptive-session constants.
const (
	// rdpDupAckThreshold is the duplicate-ack count that triggers a
	// fast retransmit.
	rdpDupAckThreshold = 3
	// rdpMinRTO and rdpMaxRTO clamp the estimated retransmission
	// timeout. The pre-sample RTO is RetransmitTimeout clamped into
	// this range.
	rdpMinRTO = 200 * time.Microsecond
	rdpMaxRTO = 100 * time.Millisecond
	// rdpInitialCwnd is the initial congestion window in segments
	// (clamped to Window).
	rdpInitialCwnd = 2
)

// Open opens a reliable session over an IP session to a.Remote.
func (r *RDP) Open(a RDPOpen) (xkernel.Session, error) {
	if a.Window == 0 {
		a.Window = 8
	}
	if a.RetransmitTimeout == 0 {
		a.RetransmitTimeout = 2 * time.Millisecond
	}
	lower, err := r.ip.Open(IPOpen{Remote: a.Remote, VCI: a.VCI, Proto: ProtoRDP})
	if err != nil {
		return nil, err
	}
	s := &rdpSession{
		r:        r,
		addr:     a,
		lower:    lower,
		unacked:  make(map[uint32][]byte),
		notFull:  sim.NewCond(r.host.Eng),
		acked:    sim.NewCond(r.host.Eng),
		retxWork: sim.NewCond(r.host.Eng),
		rng:      r.host.Eng.DeriveRand(fmt.Sprintf("rdp/r%v/vci%d", a.Remote, a.VCI)),
	}
	if a.Adaptive {
		s.est = newRTTEstimator(a.RetransmitTimeout, rdpMinRTO, rdpMaxRTO)
		s.cwnd = uint32(min(rdpInitialCwnd, a.Window)) * cwndUnit
		s.ssthresh = uint32(a.Window) * cwndUnit
		r.adaptive = append(r.adaptive, s)
	}
	lower.SetHandler(s.demux)
	r.host.Eng.Go(fmt.Sprintf("rdp-retx-vci%d", a.VCI), s.retransmitter)
	return s, nil
}

type rdpSession struct {
	r     *RDP
	addr  RDPOpen
	lower xkernel.Session
	upper xkernel.Handler

	// Sender state.
	sendBase uint32 // oldest unacknowledged sequence number
	nextSeq  uint32
	unacked  map[uint32][]byte
	spare    [][]byte   // acknowledged copies, reused by the next Push
	stage    []byte     // segment staging, reused by every sendSegment
	sends    []*bufSend // finished send records, reused
	timer    sim.Event
	notFull  *sim.Cond
	acked    *sim.Cond
	retxWork *sim.Cond
	closed   bool

	// Backoff state: consecutive counts timeout rounds without hearing
	// anything from the peer. Any inbound acknowledgement — even a
	// duplicate — proves the path is alive and resets it: a lossy link
	// keeps retransmitting at the base rate, while a dead one backs off
	// exponentially until MaxRetries fails the session. rng is a
	// session-private derived stream so the jitter draws never perturb
	// any other component's draws.
	consecutive int
	rng         *rand.Rand
	err         error // terminal error (ErrMaxRetries); nil while healthy

	// Adaptive-transport state (addr.Adaptive sessions only). cwnd and
	// ssthresh are fixed-point (cwndUnit = one segment) so congestion
	// avoidance accumulates fractional per-ack growth in integers —
	// no floats, bit-deterministic. recoverSeq is nextSeq at the last
	// window reduction: further loss/ECE signals before sendBase passes
	// it belong to the same window and must not reduce again.
	est        *rttEstimator
	cwnd       uint32
	ssthresh   uint32
	dupAcks    int
	recoverSeq uint32
	pendingECE bool // receiver: echo ECE on the next outbound segment

	// Receiver state.
	expected uint32
	payload  msg.Message // the view handed upward, valid until it returns
}

// cwndUnit is one segment of congestion window in fixed-point units.
const cwndUnit = 1 << 10

// rdpFlagECE is the ECN-echo bit in the header's flags byte: the
// receiver saw the fabric's CE mark on a delivered PDU and is telling
// the sender to back off.
const rdpFlagECE = 1 << 0

// seqGE reports a ≥ b in modular sequence arithmetic (windows are far
// smaller than half the sequence space).
func seqGE(a, b uint32) bool { return a-b < 1<<31 }

// SetHandler implements xkernel.Session.
func (s *rdpSession) SetHandler(h xkernel.Handler) { s.upper = h }

// Close implements xkernel.Session.
func (s *rdpSession) Close() {
	s.closed = true
	s.cancelTimer()
	s.lower.Close()
}

// Push sends one message reliably: it blocks while the window is full,
// stores a retransmission copy, and returns once the segment is queued.
// Use WaitAcked to drain the window.
func (s *rdpSession) Push(p *sim.Proc, m *msg.Message) error {
	for s.err == nil && s.nextSeq-s.sendBase >= s.effWindow() {
		s.notFull.Wait(p)
	}
	if s.err != nil {
		return s.err
	}
	var buf []byte
	if n := len(s.spare); n > 0 {
		buf, s.spare = s.spare[n-1][:0], s.spare[:n-1]
	}
	data, err := m.AppendBytes(buf)
	if err != nil {
		return err
	}
	// A reliable sender must hold the bytes until acknowledged; the copy
	// is priced as CPU touch time.
	s.r.host.Compute(p, s.r.host.Prof.Cycles((len(data)+3)/4))
	seq := s.nextSeq
	s.nextSeq++
	s.unacked[seq] = data
	s.r.stats.DataSent++
	if s.addr.Adaptive {
		s.est.Sent(seq, s.r.host.Eng.Now())
	}
	if err := s.sendSegment(p, rdpData, seq, data); err != nil {
		return err
	}
	s.armTimer()
	return nil
}

// WaitAcked blocks until every pushed message has been acknowledged, or
// the session fails terminally (check Err afterwards).
func (s *rdpSession) WaitAcked(p *sim.Proc) {
	for s.err == nil && s.sendBase != s.nextSeq {
		s.acked.Wait(p)
	}
}

// Err reports the session's terminal error — ErrMaxRetries once the
// retry cap fired — or nil while the session is healthy.
func (s *rdpSession) Err() error { return s.err }

// effWindow is the sender's effective window in segments: the flow
// window for legacy sessions; its minimum with the congestion window
// (never below one segment, so recovery can always probe) when
// adaptive.
func (s *rdpSession) effWindow() uint32 {
	w := uint32(s.addr.Window)
	if s.addr.Adaptive {
		if c := s.cwnd / cwndUnit; c < w {
			w = c
		}
		if w < 1 {
			w = 1
		}
	}
	return w
}

// sendSegment builds the header (+ checksummed payload for data) and
// pushes it through IP. The segment is staged in the session's buffer,
// which is written through the cache into kernel memory before the push
// can yield, so the buffer is free again for the next segment.
func (s *rdpSession) sendSegment(p *sim.Proc, typ byte, seq uint32, payload []byte) error {
	host := s.r.host
	total := RDPHeaderSize + len(payload)
	va, err := host.Kernel.Alloc(total)
	if err != nil {
		return err
	}
	s.stage = slices.Grow(s.stage[:0], total)[:total]
	buf := s.stage
	clear(buf[:RDPHeaderSize])
	buf[0] = typ
	if s.addr.Adaptive && s.pendingECE {
		// Echo the fabric's CE mark back to the sender. One-shot: the
		// reverse path re-arms it for every marked PDU that arrives, so
		// a persistently congested queue keeps the echo flowing.
		buf[1] = rdpFlagECE
		s.pendingECE = false
		s.r.stats.EcnEchoed++
	}
	binary.BigEndian.PutUint32(buf[4:], seq)
	binary.BigEndian.PutUint32(buf[8:], s.expected) // piggybacked cumulative ack
	binary.BigEndian.PutUint32(buf[12:], uint32(len(payload)))
	copy(buf[RDPHeaderSize:], payload)
	if typ == rdpData {
		binary.BigEndian.PutUint16(buf[2:], hostsim.InternetChecksum(payload))
	}
	if err := writeThroughCache(host, host.Kernel, va, buf); err != nil {
		return err
	}
	r := newBufSend(&s.sends, host.Kernel, va, total)
	r.m.SetFragments(msg.Fragment{Space: host.Kernel, VA: va, Len: total})
	return s.lower.(*ipSession).PushDone(p, &r.m, r)
}

// backoffGraceRounds is how many barren rounds run at the base timeout
// before the interval starts doubling (capped sessions only). Over a
// fragmenting lower layer a large segment routinely needs several
// whole-segment retransmissions to get every fragment through at once —
// the receiver stays silent the entire time, so early rounds of silence
// are weak evidence of a dead peer. Sustained silence beyond the grace
// is strong evidence, and the interval then grows exponentially.
const backoffGraceRounds = 4

// backoffTimeout is the current retransmit interval. Uncapped sessions
// (MaxRetries 0) use the fixed base timeout; sessions probing for a
// dead peer (MaxRetries > 0) hold the base for backoffGraceRounds
// barren rounds, then double per round up to 64× — no point hammering a
// path that has been silent that long. Both cases apply a ±25% jitter
// factor drawn from the session's derived stream so parallel sessions
// don't retransmit in lockstep.
func (s *rdpSession) backoffTimeout() time.Duration {
	shift := 0
	if s.addr.MaxRetries > 0 {
		shift = s.consecutive - backoffGraceRounds
		if shift < 0 {
			shift = 0
		}
		if shift > maxBackoffShift {
			shift = maxBackoffShift
		}
	}
	d := s.addr.RetransmitTimeout << shift
	jitter := 0.75 + s.rng.Float64()/2
	return time.Duration(float64(d) * jitter)
}

// timeoutInterval is the interval the retransmit timer is armed with:
// the estimator's RTO for adaptive sessions, the backed-off fixed base
// for legacy. Both carry the ±25% jitter factor from the session's
// derived stream (deterministic, but decorrelated across sessions).
// The jitter is load-bearing for incast recovery: synchronized flows
// that all lost their whole window take their sample-free RTOs in
// lockstep, and when one in-flight segment spans more cells than the
// shared output queue holds, only a flow retransmitting alone can
// complete a PDU — identical timers would collide forever.
func (s *rdpSession) timeoutInterval() time.Duration {
	if s.addr.Adaptive {
		jitter := 0.75 + s.rng.Float64()/2
		return time.Duration(float64(s.est.RTO()) * jitter)
	}
	return s.backoffTimeout()
}

// onTimeout is the adaptive congestion response to a retransmission
// timeout: collapse to one segment (the strongest loss signal), halve
// ssthresh, and let the estimator double its RTO until a fresh sample
// arrives (Karn's rule keeps ambiguous samples out meanwhile).
func (s *rdpSession) onTimeout() {
	half := s.cwnd / 2
	if half < 2*cwndUnit {
		half = 2 * cwndUnit
	}
	s.ssthresh = half
	s.cwnd = cwndUnit
	s.recoverSeq = s.nextSeq
	s.dupAcks = 0
	s.est.Backoff()
}

func (s *rdpSession) armTimer() {
	if s.timer.Pending() || s.sendBase == s.nextSeq || s.closed {
		return
	}
	s.timer = s.r.host.Eng.AfterCall(s.timeoutInterval(), rdpTimeoutCB, s)
}

// rdpTimeoutCB is the retransmit timer's expiry, in AfterCall form so
// arming it allocates nothing.
func rdpTimeoutCB(arg any) {
	s := arg.(*rdpSession)
	s.timer = sim.Event{}
	if s.closed || s.sendBase == s.nextSeq {
		return
	}
	s.r.stats.Timeouts++
	s.consecutive++
	if s.addr.MaxRetries > 0 && s.consecutive > s.addr.MaxRetries {
		s.fail(ErrMaxRetries)
		return
	}
	if s.addr.Adaptive {
		s.onTimeout()
	}
	s.retxWork.Broadcast()
}

// fail terminates the session: it records the error, closes the lower
// session, and wakes every blocked sender so Push/WaitAcked observe the
// error instead of sleeping forever on a dead peer.
func (s *rdpSession) fail(err error) {
	if s.closed || s.err != nil {
		return
	}
	s.err = err
	s.closed = true
	s.r.stats.Failed++
	if eng := s.r.host.Eng; eng.Recording() {
		eng.Emit(sim.TraceEvent{At: eng.Now(), Ph: 'i', Comp: "rdp", Cat: sim.CatProto, Name: "session-failed", Arg: int64(s.addr.VCI)})
	}
	s.cancelTimer()
	s.lower.Close()
	s.notFull.Broadcast()
	s.acked.Broadcast()
	s.retxWork.Broadcast()
}

func (s *rdpSession) cancelTimer() {
	s.r.host.Eng.Cancel(s.timer)
	s.timer = sim.Event{}
}

// retransmitter is the session's timeout thread: on each timer firing it
// resends the outstanding window (go-back-N) — all of it for legacy
// sessions, at most the congestion window for adaptive ones (a
// collapsed cwnd must not blast the full flow window back into the
// congested queue). Adaptive resends are reported to the estimator so
// Karn's rule disqualifies their ambiguous acks.
func (s *rdpSession) retransmitter(p *sim.Proc) {
	for {
		s.retxWork.Wait(p)
		if s.closed {
			return
		}
		end := s.nextSeq
		if s.addr.Adaptive {
			if w := s.effWindow(); s.nextSeq-s.sendBase > w {
				end = s.sendBase + w
			}
		}
		for seq := s.sendBase; seq != end; seq++ {
			data, ok := s.unacked[seq]
			if !ok {
				continue
			}
			if s.addr.Adaptive {
				s.est.Retransmitted(seq)
			}
			s.r.stats.Retransmits++
			if eng := s.r.host.Eng; eng.Recording() {
				eng.Emit(sim.TraceEvent{At: eng.Now(), Ph: 'i', Comp: "rdp", Cat: sim.CatProto, Name: "retransmit", Arg: int64(seq)})
			}
			if err := s.sendSegment(p, rdpData, seq, data); err != nil {
				return
			}
		}
		s.armTimer()
	}
}

// demux handles an inbound segment from IP.
func (s *rdpSession) demux(p *sim.Proc, m *msg.Message) {
	if m.Len() < RDPHeaderSize {
		return
	}
	var hdr [RDPHeaderSize]byte
	if err := readThroughCache(p, s.r.host, m, hdr[:]); err != nil {
		return
	}
	typ := hdr[0]
	ece := s.addr.Adaptive && hdr[1]&rdpFlagECE != 0
	seq := binary.BigEndian.Uint32(hdr[4:])
	ack := binary.BigEndian.Uint32(hdr[8:])
	plen := binary.BigEndian.Uint32(hdr[12:])

	// Cumulative acknowledgement processing (both segment types carry it).
	s.processAck(ack, ece)

	if typ != rdpData {
		return
	}
	if s.addr.Adaptive {
		// The fabric's CE mark rides the PDU that carried this segment;
		// note it before any discard below — congestion was experienced
		// whether or not the segment is in sequence.
		if ips, ok := s.lower.(*ipSession); ok && ips.CongestionMarked() {
			s.pendingECE = true
		}
	}
	if int(plen) != m.Len()-RDPHeaderSize {
		return
	}
	payload := &s.payload
	if err := payload.SetTrimPrefix(m, RDPHeaderSize); err != nil {
		return
	}
	if seq != s.expected {
		// Go-back-N: discard and re-acknowledge what we have.
		s.r.stats.OutOfOrder++
		s.sendAck(p)
		return
	}
	// Verify the payload (through the cache, with lazy recovery).
	segs, err := payload.AppendPhysSegments(s.r.host.GetSegs())
	defer s.r.host.PutSegs(segs)
	if err != nil {
		return
	}
	want := binary.BigEndian.Uint16(hdr[2:])
	got := s.r.host.Checksum(p, segs)
	if got != want {
		recovered := false
		if s.r.ip.Driver().RecoverData(p, m) {
			recovered = s.r.host.Checksum(p, segs) == want
		}
		if !recovered {
			s.r.stats.ChecksumErr++
			s.sendAck(p) // still an implicit NAK for this segment
			return
		}
	}
	s.expected++
	s.r.stats.Delivered++
	if s.upper != nil {
		s.upper(p, payload)
	}
	s.sendAck(p)
}

func (s *rdpSession) processAck(ack uint32, ece bool) {
	if ack == s.sendBase {
		if s.sendBase != s.nextSeq {
			s.r.stats.DupAcks++
			// Even a duplicate ack proves the peer and both directions of
			// the path are alive — only the segments are being lost. Keep
			// retransmitting at the base rate; exponential backoff is for
			// silence, not for loss.
			s.consecutive = 0
			if s.addr.Adaptive {
				if ece {
					s.ecnBackoff()
				}
				s.dupAcks++
				if s.dupAcks == rdpDupAckThreshold && seqGE(s.sendBase, s.recoverSeq) {
					// Fast retransmit: the receiver is live and asking for
					// sendBase — recover in one RTT instead of a timeout
					// round. Reno response: halve into recovery, resend the
					// (cwnd-bounded) window, restart the timer fresh.
					s.r.stats.FastRetx++
					half := s.cwnd / 2
					if half < 2*cwndUnit {
						half = 2 * cwndUnit
					}
					s.ssthresh = half
					s.cwnd = half
					s.recoverSeq = s.nextSeq
					s.dupAcks = 0
					s.cancelTimer()
					s.retxWork.Broadcast()
				}
			}
		}
		return
	}
	// Window arithmetic is modular; only acks inside the outstanding
	// window are meaningful (anything else is corrupt or stale).
	if ack-s.sendBase > s.nextSeq-s.sendBase {
		return
	}
	now := s.r.host.Eng.Now()
	ackedSegs := uint32(0)
	for s.sendBase != s.nextSeq && s.sendBase != ack {
		s.spare = append(s.spare, s.unacked[s.sendBase])
		delete(s.unacked, s.sendBase)
		if s.addr.Adaptive {
			if sample, ok := s.est.Acked(s.sendBase, now); ok {
				s.r.stats.RTTSamples++
				if s.r.mRTT != nil {
					s.r.mRTT.Observe(float64(sample.Microseconds()))
				}
			}
		}
		s.sendBase++
		ackedSegs++
	}
	s.consecutive = 0 // forward progress resets the backoff
	if s.addr.Adaptive {
		s.dupAcks = 0
		s.growCwnd(ackedSegs)
		if ece {
			s.ecnBackoff()
		}
		if s.sendBase != s.nextSeq && !seqGE(s.sendBase, s.recoverSeq) {
			// Ack-clocked recovery: while sendBase is still behind the
			// last loss point, everything outstanding was (go-back-N)
			// lost with it, so resend the cwnd-bounded window now — one
			// window per RTT — instead of letting each segment wait out
			// its own full backed-off RTO round.
			s.retxWork.Broadcast()
		}
	}
	s.notFull.Broadcast()
	s.acked.Broadcast()
	s.cancelTimer()
	s.armTimer()
}

// growCwnd opens the congestion window for n newly acknowledged
// segments: one segment per ack in slow start (below ssthresh), one
// segment per window (cwndUnit²/cwnd per ack, integer fixed point) in
// congestion avoidance. Capped at the flow window — growth beyond what
// Push may ever have outstanding is dead state.
func (s *rdpSession) growCwnd(n uint32) {
	limit := uint32(s.addr.Window) * cwndUnit
	for i := uint32(0); i < n && s.cwnd < limit; i++ {
		if s.cwnd < s.ssthresh {
			s.cwnd += cwndUnit
		} else {
			inc := cwndUnit * cwndUnit / s.cwnd
			if inc == 0 {
				inc = 1
			}
			s.cwnd += inc
		}
	}
	if s.cwnd > limit {
		s.cwnd = limit
	}
}

// ecnBackoff is the sender's response to an ECE echo: a multiplicative
// decrease without any retransmission — the point of marking is to shed
// the queue before it tail-drops. At most one decrease per window in
// flight (recoverSeq), or a burst of marked PDUs would collapse cwnd to
// the floor in one RTT.
func (s *rdpSession) ecnBackoff() {
	if !seqGE(s.sendBase, s.recoverSeq) {
		return
	}
	s.r.stats.EcnBackoffs++
	half := s.cwnd / 2
	if half < 2*cwndUnit {
		half = 2 * cwndUnit
	}
	s.ssthresh = half
	s.cwnd = half
	s.recoverSeq = s.nextSeq
	s.dupAcks = 0
}

func (s *rdpSession) sendAck(p *sim.Proc) {
	s.r.stats.AcksSent++
	if err := s.sendSegment(p, rdpAck, 0, nil); err != nil {
		return
	}
}

var _ xkernel.Session = (*rdpSession)(nil)

// WaitAckedSession lets callers drain an RDP session through the
// xkernel.Session interface and observe its terminal error.
type WaitAckedSession interface {
	WaitAcked(p *sim.Proc)
	Err() error
}

var _ WaitAckedSession = (*rdpSession)(nil)
