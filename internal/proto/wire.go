package proto

import (
	"encoding/binary"

	"repro/internal/hostsim"
)

// BuildUDPFragments constructs the on-the-wire IP fragments of one UDP
// datagram, without any simulation state — used to program the board's
// fictitious-PDU generator for the receive-side isolation experiments
// (Figures 2 and 3), whose traffic must be real packets the host stack
// can parse. The fragments are sub-slices of one fresh buffer, each
// capped at its own end.
func BuildUDPFragments(payload []byte, srcPort, dstPort uint16, src, dst HostAddr, mtu int, checksum bool, ident uint32) [][]byte {
	var u UDPFragments
	return u.Build(payload, srcPort, dstPort, src, dst, mtu, checksum, ident)
}

// UDPFragments builds UDP datagrams' IP fragments into storage it
// reuses from one Build to the next, so a generator that sends one
// message at a time allocates only for the largest. The zero value is
// ready to use.
type UDPFragments struct {
	buf   []byte
	frags [][]byte
}

// Build returns the IP fragments of one UDP datagram carrying payload,
// as BuildUDPFragments does. They stay valid until the next Build.
// Each fragment's bytes are written straight from the header and
// payload, with no intermediate datagram.
func (u *UDPFragments) Build(payload []byte, srcPort, dstPort uint16, src, dst HostAddr, mtu int, checksum bool, ident uint32) [][]byte {
	var sum uint16
	if checksum {
		sum = hostsim.InternetChecksum(payload)
		if sum == 0 {
			sum = 0xFFFF
		}
	}
	var udp [UDPHeaderSize]byte
	binary.BigEndian.PutUint16(udp[0:], srcPort)
	binary.BigEndian.PutUint16(udp[2:], dstPort)
	binary.BigEndian.PutUint32(udp[4:], uint32(len(payload)))
	binary.BigEndian.PutUint16(udp[8:], sum)

	dgramLen := UDPHeaderSize + len(payload)
	maxData := mtu - IPHeaderSize
	nFrags := (dgramLen + maxData - 1) / maxData
	total := nFrags*IPHeaderSize + dgramLen
	if cap(u.buf) < total {
		u.buf = make([]byte, total)
	}
	buf := u.buf[:total]
	frags := u.frags[:0]
	for off, at := 0, 0; off < dgramLen; {
		take := min(dgramLen-off, maxData)
		frag := buf[at : at+IPHeaderSize+take : at+IPHeaderSize+take]
		hdr := frag[:IPHeaderSize]
		clear(hdr)
		hdr[0] = 0x45
		hdr[1] = ProtoUDP
		hdr[2] = byte(src)
		hdr[3] = byte(dst)
		binary.BigEndian.PutUint32(hdr[4:], uint32(take))
		binary.BigEndian.PutUint32(hdr[8:], ident)
		binary.BigEndian.PutUint32(hdr[12:], uint32(off))
		if off+take < dgramLen {
			hdr[16] = 1 // more fragments
		}
		hdr[17] = 64
		binary.BigEndian.PutUint16(hdr[18:], hostsim.InternetChecksum(hdr[:18]))
		// The fragment carries datagram bytes [off, off+take): what is
		// left of the UDP header, then payload.
		data := frag[IPHeaderSize:]
		n := 0
		if off < UDPHeaderSize {
			n = copy(data, udp[off:])
		}
		if n < len(data) {
			copy(data[n:], payload[off+n-UDPHeaderSize:])
		}
		frags = append(frags, frag)
		off += take
		at += len(frag)
	}
	u.frags = frags
	return frags
}
