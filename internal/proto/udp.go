package proto

import (
	"encoding/binary"

	"repro/internal/atm"
	"repro/internal/hostsim"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/xkernel"
)

// UDPStats counts UDP activity.
type UDPStats struct {
	Sent        int64
	Received    int64
	ChecksumErr int64 // failures remaining after any recovery
	Recovered   int64 // checksum failures fixed by lazy invalidation
	Dropped     int64
}

// UDP is the transport protocol instance for one host, configured over
// an IP instance.
type UDP struct {
	host  *hostsim.Host
	ip    *IP
	stats UDPStats
}

// NewUDP returns a UDP instance over ip.
func NewUDP(h *hostsim.Host, ip *IP) *UDP {
	return &UDP{host: h, ip: ip}
}

// Stats returns a copy of the counters.
func (u *UDP) Stats() UDPStats { return u.stats }

// UDPOpen addresses a UDP session. Checksum selects whether the data
// checksum is computed and verified (the paper's experiments run both
// ways; Table 1 has it off, Figure 3's "UDP-CS" curves on).
type UDPOpen struct {
	Remote   HostAddr
	VCI      atm.VCI
	SrcPort  uint16
	DstPort  uint16
	Checksum bool
}

// Open opens a UDP session over an IP session to a.Remote.
func (u *UDP) Open(a UDPOpen) (xkernel.Session, error) {
	lower, err := u.ip.Open(IPOpen{Remote: a.Remote, VCI: a.VCI, Proto: ProtoUDP})
	if err != nil {
		return nil, err
	}
	s := &udpSession{u: u, addr: a, lower: lower}
	lower.SetHandler(s.demux)
	return s, nil
}

type udpSession struct {
	u     *UDP
	addr  UDPOpen
	lower xkernel.Session
	upper xkernel.Handler

	payload msg.Message // the view handed upward, valid until it returns
	sends   []*bufSend  // finished send records, reused
}

// SetHandler implements xkernel.Session.
func (s *udpSession) SetHandler(h xkernel.Handler) { s.upper = h }

// Close implements xkernel.Session.
func (s *udpSession) Close() { s.lower.Close() }

// Push prepends the UDP header — checksumming the payload through the
// cache and bus models when enabled, the dominant per-byte CPU cost of
// §4 — and hands the datagram to IP.
func (s *udpSession) Push(p *sim.Proc, m *msg.Message) error {
	s.u.host.Compute(p, udpCost(s.u.host.Prof.ProtoSendPerPDU))
	var sum uint16
	if s.addr.Checksum {
		segs, err := m.AppendPhysSegments(s.u.host.GetSegs())
		if err != nil {
			s.u.host.PutSegs(segs)
			return err
		}
		sum = s.u.host.Checksum(p, segs)
		s.u.host.PutSegs(segs)
		if sum == 0 {
			sum = 0xFFFF // 0 means "no checksum", per UDP convention
		}
	}
	hdrVA, err := s.u.host.Kernel.Alloc(UDPHeaderSize)
	if err != nil {
		return err
	}
	var hdr [UDPHeaderSize]byte
	binary.BigEndian.PutUint16(hdr[0:], s.addr.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:], s.addr.DstPort)
	binary.BigEndian.PutUint32(hdr[4:], uint32(m.Len()))
	binary.BigEndian.PutUint16(hdr[8:], sum)
	if err := writeThroughCache(s.u.host, s.u.host.Kernel, hdrVA, hdr[:]); err != nil {
		return err
	}
	// The DMA reads the header asynchronously; the record frees it only
	// once every fragment of this datagram has completed transmission.
	r := newBufSend(&s.sends, s.u.host.Kernel, hdrVA, UDPHeaderSize)
	r.m.SetPrepend(msg.Fragment{Space: s.u.host.Kernel, VA: hdrVA, Len: UDPHeaderSize}, m)
	s.u.stats.Sent++
	return s.lower.(*ipSession).PushDone(p, &r.m, r)
}

// demux verifies and strips the UDP header and delivers the payload.
func (s *udpSession) demux(p *sim.Proc, m *msg.Message) {
	s.u.host.Compute(p, udpCost(s.u.host.Prof.ProtoRecvPerPDU))
	if m.Len() < UDPHeaderSize {
		s.u.stats.Dropped++
		return
	}
	var hdr [UDPHeaderSize]byte
	if err := readThroughCache(p, s.u.host, m, hdr[:]); err != nil {
		s.u.stats.Dropped++
		return
	}
	length := binary.BigEndian.Uint32(hdr[4:])
	wantSum := binary.BigEndian.Uint16(hdr[8:])
	if int(length) != m.Len()-UDPHeaderSize {
		s.u.stats.Dropped++
		return
	}
	payload := &s.payload
	if err := payload.SetTrimPrefix(m, UDPHeaderSize); err != nil {
		s.u.stats.Dropped++
		return
	}
	if s.addr.Checksum && wantSum != 0 {
		segs, err := payload.AppendPhysSegments(s.u.host.GetSegs())
		defer s.u.host.PutSegs(segs)
		if err != nil {
			s.u.stats.Dropped++
			return
		}
		got := s.u.host.Checksum(p, segs)
		if got == 0 {
			got = 0xFFFF
		}
		if got != wantSum {
			// Stale cache data? Invalidate and re-evaluate (§2.3).
			recovered := false
			if s.u.ip.Driver().RecoverData(p, m) {
				got = s.u.host.Checksum(p, segs)
				if got == 0 {
					got = 0xFFFF
				}
				recovered = got == wantSum
			}
			if !recovered {
				s.u.ip.Driver().NoteChecksumError()
				s.u.stats.ChecksumErr++
				s.u.stats.Dropped++
				return
			}
			s.u.stats.Recovered++
		}
	}
	s.u.stats.Received++
	if s.upper != nil {
		s.upper(p, payload)
	}
}

var (
	_ xkernel.Session = (*udpSession)(nil)
	_ xkernel.Session = (*ipSession)(nil)
)
