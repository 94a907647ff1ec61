package proto

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/hostsim"
)

// datagramFragments is the two-copy builder UDPFragments replaced: the
// whole datagram is built first, then each fragment copies its slice of
// it into a buffer of its own.
func datagramFragments(payload []byte, srcPort, dstPort uint16, src, dst HostAddr, mtu int, checksum bool, ident uint32) [][]byte {
	var sum uint16
	if checksum {
		sum = hostsim.InternetChecksum(payload)
		if sum == 0 {
			sum = 0xFFFF
		}
	}
	dgram := make([]byte, UDPHeaderSize+len(payload))
	binary.BigEndian.PutUint16(dgram[0:], srcPort)
	binary.BigEndian.PutUint16(dgram[2:], dstPort)
	binary.BigEndian.PutUint32(dgram[4:], uint32(len(payload)))
	binary.BigEndian.PutUint16(dgram[8:], sum)
	copy(dgram[UDPHeaderSize:], payload)
	maxData := mtu - IPHeaderSize
	var frags [][]byte
	for off := 0; off < len(dgram); {
		take := min(len(dgram)-off, maxData)
		frag := make([]byte, IPHeaderSize+take)
		frag[0] = 0x45
		frag[1] = ProtoUDP
		frag[2] = byte(src)
		frag[3] = byte(dst)
		binary.BigEndian.PutUint32(frag[4:], uint32(take))
		binary.BigEndian.PutUint32(frag[8:], ident)
		binary.BigEndian.PutUint32(frag[12:], uint32(off))
		if off+take < len(dgram) {
			frag[16] = 1
		}
		frag[17] = 64
		binary.BigEndian.PutUint16(frag[18:], hostsim.InternetChecksum(frag[:18]))
		copy(frag[IPHeaderSize:], dgram[off:off+take])
		frags = append(frags, frag)
		off += take
	}
	return frags
}

// TestUDPFragmentsReuseMatchesFreshBuild builds a table of datagrams
// with one UDPFragments, largest first, overwriting every returned
// fragment with 0xDE before the next Build. Each build must be
// byte-identical to the two-copy builder's, as must BuildUDPFragments',
// whose fragments must each be capped at their own end. The 25-byte MTU
// carries 5 datagram bytes per fragment, so the UDP header spans three.
func TestUDPFragmentsReuseMatchesFreshBuild(t *testing.T) {
	cases := []struct {
		size, mtu int
		checksum  bool
	}{
		{70000, 16384, true},
		{9000, 4096, false},
		{4076, 4096, true}, // datagram exactly fills one MTU
		{4077, 4096, true}, // one byte over
		{100, 65536, false},
		{1, 4096, true},
		{0, 4096, true},
		{23, 25, false},
		{0, 25, true},
		{65536, 9180, true},
	}
	var u UDPFragments
	for i, c := range cases {
		name := fmt.Sprintf("%d/mtu%d/sum%v", c.size, c.mtu, c.checksum)
		payload := pattern(c.size, byte(i))
		ident := uint32(1000 + i)
		want := datagramFragments(payload, 1, 2, 3, 4, c.mtu, c.checksum, ident)
		fresh := BuildUDPFragments(payload, 1, 2, 3, 4, c.mtu, c.checksum, ident)
		reused := u.Build(payload, 1, 2, 3, 4, c.mtu, c.checksum, ident)
		for _, got := range []struct {
			how   string
			frags [][]byte
		}{{"fresh", fresh}, {"reused", reused}} {
			if len(got.frags) != len(want) {
				t.Fatalf("%s %s: %d fragments, want %d", name, got.how, len(got.frags), len(want))
			}
			for k := range want {
				if !bytes.Equal(got.frags[k], want[k]) {
					t.Fatalf("%s %s: fragment %d differs", name, got.how, k)
				}
			}
		}
		for k, f := range fresh {
			if cap(f) != len(f) {
				t.Errorf("%s: fragment %d has cap %d beyond its %d bytes", name, k, cap(f), len(f))
			}
		}
		for _, f := range reused {
			for j := range f {
				f[j] = 0xDE
			}
		}
	}
}
