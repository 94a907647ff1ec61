// Package proto implements the protocol stack the paper evaluates over
// OSIRIS: an IP-like internetwork protocol with fragmentation and a
// UDP-like transport with an optional Internet checksum, both written
// against the x-kernel framework. As in the paper (§4 footnote), the
// protocols are modified to support messages larger than 64 KB — length
// fields are 32 bits.
//
// Processing costs come from the host profile: the fixed per-PDU
// UDP/IP cost (calibrated to the paper's 200 µs on the DECstation,
// §2.1.2) is split between the layers, and data-touching operations
// (header reads, checksums) go through the cache and bus models, so
// stale cache lines and memory contention behave as they did on the
// real machines.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/atm"
	"repro/internal/driver"
	"repro/internal/hostsim"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/xkernel"
)

// HostAddr identifies a host (the testbed is two hosts back to back).
type HostAddr uint8

// Header sizes and protocol numbers.
const (
	IPHeaderSize  = 20
	UDPHeaderSize = 12
	ProtoUDP      = 17
)

// Cost split of the profile's per-PDU protocol time between layers.
const (
	udpShare = 0.4
	ipShare  = 0.6
)

func udpCost(d time.Duration) time.Duration { return time.Duration(float64(d) * udpShare) }
func ipCost(d time.Duration) time.Duration  { return time.Duration(float64(d) * ipShare) }

// IPStats counts IP activity.
type IPStats struct {
	FragsSent    int64
	FragsRecv    int64
	PDUsSent     int64
	PDUsRecv     int64
	HdrErrors    int64 // header checksum failures (after any recovery)
	HdrRecovered int64 // header failures fixed by lazy-invalidation recovery
	Dropped      int64
}

// IP is the internetwork protocol instance for one host.
type IP struct {
	host  *hostsim.Host
	drv   *driver.Driver
	local HostAddr
	mtu   int
	ident uint32
	stats IPStats

	sessions *ipSession // every session opened, linked by next, for CheckPools
}

// NewIP returns an IP instance with the given maximum transfer unit
// (which, per §2.2, the driver is free to define; the paper's
// experiments use 16 KB, and the page-aligned choice is page size × k
// plus IPHeaderSize).
func NewIP(h *hostsim.Host, drv *driver.Driver, local HostAddr, mtu int) *IP {
	if mtu <= IPHeaderSize {
		panic("proto: MTU must exceed the IP header size")
	}
	return &IP{host: h, drv: drv, local: local, mtu: mtu}
}

// MTU returns the configured MTU.
func (ip *IP) MTU() int { return ip.mtu }

// Driver exposes the driver (for recovery hooks and tests).
func (ip *IP) Driver() *driver.Driver { return ip.drv }

// Stats returns a copy of the counters.
func (ip *IP) Stats() IPStats { return ip.stats }

// IPOpen addresses an IP session: the remote host, the VCI the path is
// bound to, and the upper protocol number.
type IPOpen struct {
	Remote HostAddr
	VCI    atm.VCI
	Proto  byte
}

// Open opens an IP session to a.Remote on the path bound to a.VCI.
func (ip *IP) Open(a IPOpen) (xkernel.Session, error) {
	s := &ipSession{
		ip:     ip,
		remote: a.Remote,
		proto:  a.Proto,
		reasm:  make(map[uint32]*ipPartial),
	}
	s.path = ip.drv.OpenPath(a.VCI, s.demux)
	s.next, ip.sessions = ip.sessions, s
	return s, nil
}

// CheckPools reports a session pool whose count of records out differs
// from what live state holds: the open reassemblies and their payload
// views, and the send records whose fragments the driver has not yet
// seen transmitted. Call it when the engine has run dry.
func (ip *IP) CheckPools() error {
	var sending []*ipSend // the records whose fragments the driver holds
	sends := map[*ipSession]int{}
	ip.drv.EachPending(func(c driver.Completion) {
		if r, ok := c.(*ipSend); ok && !slices.Contains(sending, r) {
			sending = append(sending, r)
			sends[r.s]++
		}
	})
	var err error
	for s := ip.sessions; s != nil; s = s.next {
		views := 0
		for _, part := range s.reasm {
			views += len(part.views)
		}
		err = errors.Join(err, s.parts.Check("ip reassemblies", len(s.reasm)),
			s.views.Check("ip payload views", views), s.sends.Check("ip sends", sends[s]))
	}
	return err
}

// ipPartial is one in-progress fragment reassembly.
type ipPartial struct {
	frags    map[uint32]*msg.Message // fragOff -> payload view
	retained []*msg.Message          // driver messages held for release
	views    []*msg.Message          // the payload views in frags
	got      int
	total    int  // -1 until the final fragment arrives
	ce       bool // any fragment arrived CE-marked
}

type ipSession struct {
	ip         *IP
	next       *ipSession // the session IP opened before this one
	remote     HostAddr
	proto      byte
	path       *driver.Path
	upper      xkernel.Handler
	reasm      map[uint32]*ipPartial
	reasmOrder []uint32 // insertion order, for the staleness cap
	lastCE     bool     // the PDU being delivered upward carried a CE mark

	joined []msg.Fragment // fragment views of a PDU being stitched

	// Receive views handed upward, valid until the upper handler
	// returns: an unfragmented payload, and a stitched datagram.
	payload, assembled msg.Message

	parts sim.Pool[*ipPartial]   // reassembly records
	views sim.Pool[*msg.Message] // reassembly payload views
	sends sim.Pool[*ipSend]      // send records
}

// maxPartials bounds concurrent fragment reassemblies per session; the
// oldest is abandoned beyond it (standing in for the usual reassembly
// timeout, which a PDU with a dropped fragment would otherwise leak).
const maxPartials = 4

// SetHandler implements xkernel.Session.
func (s *ipSession) SetHandler(h xkernel.Handler) { s.upper = h }

// CongestionMarked, read from within an upper handler, reports whether
// the PDU being delivered (or, for fragmented PDUs, any fragment of it)
// carried the fabric's congestion-experienced mark.
func (s *ipSession) CongestionMarked() bool { return s.lastCE }

// Close implements xkernel.Session.
func (s *ipSession) Close() { s.ip.drv.ClosePath(s.path) }

// Push fragments m to the MTU and queues each fragment with its own
// 20-byte header buffer — the buffer-chain structure whose physical
// fragmentation §2.2 analyses.
func (s *ipSession) Push(p *sim.Proc, m *msg.Message) error {
	return s.newSend(0, 0).push(p, m)
}

// newSend takes a send record for one datagram. When n > 0 the
// datagram's first n bytes sit in the kernel buffer at va, which the
// DMA reads asynchronously (UDP's header, RDP's staged segment): the
// record frees it once the datagram's last fragment has been
// transmitted (tail advance past its descriptors). An upper layer
// builds its datagram in the record's dgram.
func (s *ipSession) newSend(va mem.VirtAddr, n int) *ipSend {
	r := sim.TakeNew(&s.sends)
	r.s, r.va, r.n = s, va, n
	return r
}

// push fragments m, the record's datagram, as Push does.
func (r *ipSend) push(p *sim.Proc, m *msg.Message) error {
	s := r.s
	maxData := s.ip.mtu - IPHeaderSize
	total := m.Len()
	s.ip.ident++
	ident := s.ip.ident
	rest := m
	for off := 0; ; {
		take := rest.Len()
		if take > maxData {
			take = maxData
		}
		pkt := r.packet()
		if take == rest.Len() {
			pkt.SetFragments(rest.Fragments()...) // final fragment: no need to carve an empty tail
		} else {
			if err := rest.SplitInto(take, pkt, &r.rest); err != nil {
				return err
			}
			rest = &r.rest
		}
		mf := off+take < total
		if err := s.sendFragment(p, r, pkt, ident, uint32(off), mf); err != nil {
			return err
		}
		off += take
		if off >= total {
			break
		}
	}
	r.sent = true
	r.finish()
	s.ip.stats.PDUsSent++
	return nil
}

// ipSend is one datagram's send in flight: an upper layer's datagram
// and kernel buffer, the payload left to fragment, and each fragment's
// packet and header buffer. It is the driver's Completion for every
// fragment, and returns to its session's pool once the whole datagram
// is queued and its last fragment has been transmitted: until then the
// driver holds the packets.
type ipSend struct {
	s       *ipSession
	dgram   msg.Message  // an upper layer's datagram
	va      mem.VirtAddr // kernel buffer to free when n > 0
	n       int
	rest    msg.Message
	pkts    []*msg.Message // one per fragment; reused with the record
	hdrs    []mem.VirtAddr // header buffer of each fragment queued
	retired int            // fragments whose transmission completed
	sent    bool           // every fragment is queued
}

// packet returns the message for the next fragment.
func (r *ipSend) packet() *msg.Message {
	i := len(r.hdrs)
	if i == len(r.pkts) {
		r.pkts = append(r.pkts, new(msg.Message))
	}
	return r.pkts[i]
}

// TxDone retires the oldest queued fragment: the driver completes a
// path's PDUs in the order they were sent.
func (r *ipSend) TxDone(p *sim.Proc) {
	// Header buffer freed once the DMA has read it.
	if err := r.s.ip.host.Kernel.Free(r.hdrs[r.retired], IPHeaderSize); err != nil {
		panic(err)
	}
	r.retired++
	r.finish()
}

// finish recycles the record, then frees the upper layer's buffer, once
// every fragment is queued and transmitted.
func (r *ipSend) finish() {
	if !r.sent || r.retired < len(r.hdrs) {
		return
	}
	va, n := r.va, r.n
	r.hdrs, r.retired, r.sent = r.hdrs[:0], 0, false
	r.s.sends.Put(r)
	if n > 0 {
		if err := r.s.ip.host.Kernel.Free(va, n); err != nil {
			panic(err)
		}
	}
}

// sendFragment puts a header buffer in front of the fragment payload in
// pkt and queues it with r as its completion.
func (s *ipSession) sendFragment(p *sim.Proc, r *ipSend, pkt *msg.Message, ident, off uint32, mf bool) error {
	s.ip.host.Compute(p, ipCost(s.ip.host.Prof.ProtoSendPerPDU))
	hdrVA, err := s.ip.host.Kernel.Alloc(IPHeaderSize)
	if err != nil {
		return err
	}
	var hdr [IPHeaderSize]byte
	hdr[0] = 0x45
	hdr[1] = s.proto
	hdr[2] = byte(s.ip.local)
	hdr[3] = byte(s.remote)
	binary.BigEndian.PutUint32(hdr[4:], uint32(pkt.Len()))
	binary.BigEndian.PutUint32(hdr[8:], ident)
	binary.BigEndian.PutUint32(hdr[12:], off)
	if mf {
		hdr[16] = 1
	}
	hdr[17] = 64 // ttl
	binary.BigEndian.PutUint16(hdr[18:], hostsim.InternetChecksum(hdr[:18]))
	if err := writeThroughCache(s.ip.host, s.ip.host.Kernel, hdrVA, hdr[:]); err != nil {
		return err
	}
	pkt.SetPrepend(msg.Fragment{Space: s.ip.host.Kernel, VA: hdrVA, Len: IPHeaderSize}, pkt)
	r.hdrs = append(r.hdrs, hdrVA)
	s.ip.stats.FragsSent++
	return s.ip.drv.Send(p, s.path, pkt, r)
}

// demux is the driver's upcall: parse and verify the header (through
// the cache — a stale header is detected here and recovered via lazy
// invalidation, §2.3), then deliver or reassemble.
func (s *ipSession) demux(p *sim.Proc, m *msg.Message) {
	s.ip.host.Compute(p, ipCost(s.ip.host.Prof.ProtoRecvPerPDU))
	s.ip.stats.FragsRecv++
	if m.Len() < IPHeaderSize {
		s.ip.stats.Dropped++
		return
	}
	var hdr [IPHeaderSize]byte
	if err := readThroughCache(p, s.ip.host, m, hdr[:]); err != nil {
		s.ip.stats.Dropped++
		return
	}
	if binary.BigEndian.Uint16(hdr[18:]) != hostsim.InternetChecksum(hdr[:18]) {
		// Possibly stale cache lines (§2.3): invalidate and re-evaluate
		// before declaring the packet in error.
		if s.ip.drv.RecoverData(p, m) {
			err := readThroughCache(p, s.ip.host, m, hdr[:])
			if err == nil && binary.BigEndian.Uint16(hdr[18:]) == hostsim.InternetChecksum(hdr[:18]) {
				s.ip.stats.HdrRecovered++
				goto ok
			}
		}
		s.ip.stats.HdrErrors++
		s.ip.stats.Dropped++
		return
	}
ok:
	payloadLen := binary.BigEndian.Uint32(hdr[4:])
	ident := binary.BigEndian.Uint32(hdr[8:])
	off := binary.BigEndian.Uint32(hdr[12:])
	mf := hdr[16]&1 != 0
	if int(payloadLen) != m.Len()-IPHeaderSize {
		s.ip.stats.Dropped++
		return
	}
	// m holds at least a header (checked above): the strips cannot fail.
	if off == 0 && !mf {
		// Unfragmented fast path.
		payload := &s.payload
		payload.SetTrimPrefix(m, IPHeaderSize)
		s.ip.stats.PDUsRecv++
		if s.upper != nil {
			s.lastCE = s.ip.drv.CEMarked()
			s.upper(p, payload)
		}
		return
	}
	payload := sim.TakeNew(&s.views)
	payload.SetTrimPrefix(m, IPHeaderSize)

	part := s.reasm[ident]
	if part == nil {
		if len(s.reasm) >= maxPartials {
			oldest := s.reasmOrder[0]
			s.reasmOrder = s.reasmOrder[1:]
			if op := s.reasm[oldest]; op != nil {
				s.dropPartial(p, oldest, op)
			}
		}
		if part = s.parts.Take(); part == nil {
			part = &ipPartial{frags: make(map[uint32]*msg.Message), total: -1}
		}
		s.reasm[ident] = part
		s.reasmOrder = append(s.reasmOrder, ident)
	}
	s.ip.drv.Retain(m)
	part.retained = append(part.retained, m)
	part.views = append(part.views, payload)
	if s.ip.drv.CEMarked() {
		part.ce = true
	}
	part.frags[off] = payload
	part.got += payload.Len()
	if !mf {
		part.total = int(off) + payload.Len()
	}
	if part.total < 0 || part.got < part.total {
		return
	}
	// Complete: stitch the fragment views together in offset order.
	joined := s.joined[:0]
	for pos := 0; pos < part.total; {
		f := part.frags[uint32(pos)]
		if f == nil {
			// Overlap/hole pathology; drop the whole PDU.
			s.dropPartial(p, ident, part)
			return
		}
		joined = append(joined, f.Fragments()...)
		pos += f.Len()
	}
	s.joined = joined
	assembled := s.assembled.SetFragments(joined...)
	s.forget(ident)
	s.ip.stats.PDUsRecv++
	if s.upper != nil {
		s.lastCE = part.ce
		s.upper(p, assembled)
	}
	s.release(p, part)
}

// release hands a forgotten reassembly's retained driver messages back
// and puts the emptied record and its payload views back in their
// pools: nothing else refers to them once it is out of s.reasm.
func (s *ipSession) release(p *sim.Proc, part *ipPartial) {
	for _, rm := range part.retained {
		s.ip.drv.Release(p, rm)
	}
	for _, v := range part.views {
		s.views.Put(v)
	}
	clear(part.frags)
	clear(part.retained)
	clear(part.views)
	*part = ipPartial{frags: part.frags, retained: part.retained[:0], views: part.views[:0], total: -1}
	s.parts.Put(part)
}

func (s *ipSession) forget(ident uint32) {
	delete(s.reasm, ident)
	for i, id := range s.reasmOrder {
		if id == ident {
			s.reasmOrder = append(s.reasmOrder[:i], s.reasmOrder[i+1:]...)
			break
		}
	}
}

func (s *ipSession) dropPartial(p *sim.Proc, ident uint32, part *ipPartial) {
	s.forget(ident)
	s.ip.stats.Dropped++
	s.release(p, part)
}

// readThroughCache reads the first len(hdr) bytes of m into hdr through
// the host's data cache, paying touch and miss costs — and observing
// stale lines, if any, exactly as the CPU would.
func readThroughCache(p *sim.Proc, h *hostsim.Host, m *msg.Message, hdr []byte) error {
	n := len(hdr)
	if n > m.Len() {
		return fmt.Errorf("proto: read %d of %d-byte message", n, m.Len())
	}
	// Walk the first n bytes fragment by fragment instead of materializing
	// a head message; the shared append slice merges abutting physical
	// runs exactly as splitting off the head and taking its
	// PhysSegments would.
	segs := h.TakeSegs()
	defer func() { h.Segs.Put(segs) }()
	var err error
	remaining := n
	for _, f := range m.Fragments() {
		if remaining == 0 {
			break
		}
		l := f.Len
		if l > remaining {
			l = remaining
		}
		segs, err = f.Space.AppendPhysSegments(segs, f.VA, l)
		if err != nil {
			return err
		}
		remaining -= l
	}
	h.AppendCPUReadData(p, hdr[:0], segs)
	return nil
}

// writeThroughCache writes data at va via the (write-through) cache so
// CPU-visible copies stay coherent with memory.
func writeThroughCache(h *hostsim.Host, space *mem.AddressSpace, va mem.VirtAddr, data []byte) error {
	for len(data) > 0 {
		pa, err := space.Translate(va)
		if err != nil {
			return err
		}
		chunk := space.Memory().PageSize() - int(space.PageOffset(va))
		if chunk > len(data) {
			chunk = len(data)
		}
		h.Cache.Write(pa, data[:chunk])
		va += mem.VirtAddr(chunk)
		data = data[chunk:]
	}
	return nil
}
