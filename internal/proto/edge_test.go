package proto

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/driver"
	"repro/internal/hostsim"
	"repro/internal/msg"
	"repro/internal/sim"
)

// injectFragment delivers a raw wire-format fragment to host B through
// its board, exactly as the network would: segmented into cells, fed
// through reassembly and the driver, and demuxed to the bound session.
func injectFragment(t *testing.T, sp *stackPair, sess *ipSession, frag []byte) {
	t.Helper()
	vci := sess.path.VCI
	sp.eng.Go("inject", func(p *sim.Proc) {
		p.Sleep(time.Millisecond) // let the driver finish stocking its free ring
		cells := atm.Segment(vci, frag, 4, false)
		for i := range cells {
			for !sp.bB.InjectCell(cells[i], i%4) {
				p.Sleep(2 * time.Microsecond)
			}
			p.Sleep(700 * time.Nanosecond)
		}
		p.Sleep(300 * time.Microsecond) // let delivery finish
	})
	sp.eng.Run()
}

func openRawIP(t *testing.T, sp *stackPair) (*ipSession, *[]int) {
	t.Helper()
	s, err := sp.ipB.Open(IPOpen{Remote: 1, VCI: 70, Proto: 99})
	if err != nil {
		t.Fatal(err)
	}
	sess := s.(*ipSession)
	var lens []int
	sess.SetHandler(func(p *sim.Proc, m *msg.Message) { lens = append(lens, m.Len()) })
	return sess, &lens
}

func TestIPOutOfOrderFragmentsReassemble(t *testing.T) {
	sp := newStackPair(t, hostsim.DEC3000_600, 4096, driver.Config{Cache: driver.CacheNone})
	sess, lens := openRawIP(t, sp)
	payload := pattern(10_000, 9)
	frags := BuildUDPFragments(payload, 1, 2, 1, 2, 4096, false, 55)
	// Deliver in a scrambled (but valid) order.
	order := []int{2, 0, 1}
	if len(frags) != 3 {
		t.Fatalf("fragments = %d, want 3", len(frags))
	}
	for _, i := range order {
		injectFragment(t, sp, sess, frags[i])
	}
	if len(*lens) != 1 {
		t.Fatalf("delivered %d PDUs, want 1", len(*lens))
	}
	if (*lens)[0] != len(payload)+UDPHeaderSize {
		t.Errorf("reassembled %d bytes", (*lens)[0])
	}
	sp.eng.Shutdown()
}

func TestIPDuplicateFragmentTolerated(t *testing.T) {
	sp := newStackPair(t, hostsim.DEC3000_600, 4096, driver.Config{Cache: driver.CacheNone})
	sess, lens := openRawIP(t, sp)
	frags := BuildUDPFragments(pattern(6000, 3), 1, 2, 1, 2, 4096, false, 56)
	injectFragment(t, sp, sess, frags[0])
	injectFragment(t, sp, sess, frags[0]) // duplicate
	injectFragment(t, sp, sess, frags[1])
	// Either delivered once (duplicate replaced in place) or dropped as
	// a hole pathology — never delivered twice, never delivered corrupt.
	if len(*lens) > 1 {
		t.Errorf("delivered %d PDUs from a duplicated fragment", len(*lens))
	}
	sp.eng.Shutdown()
}

// TestIPReusedPartialForgetsFragments: a finished reassembly's record
// is reused for the next datagram, which must not see its fragments. The
// second datagram's first fragment arrives twice and its middle one
// never, so its byte count completes over a hole: it must be dropped,
// not stitched with the first datagram's middle fragment.
func TestIPReusedPartialForgetsFragments(t *testing.T) {
	sp := newStackPair(t, hostsim.DEC3000_600, 4096, driver.Config{Cache: driver.CacheNone})
	sess, lens := openRawIP(t, sp)
	first := BuildUDPFragments(pattern(10_000, 1), 1, 2, 1, 2, 4096, false, 60)
	for _, f := range first {
		injectFragment(t, sp, sess, f)
	}
	second := BuildUDPFragments(pattern(10_000, 2), 1, 2, 1, 2, 4096, false, 61)
	if len(first) != 3 || len(second) != 3 {
		t.Fatalf("fragments = %d and %d, want 3", len(first), len(second))
	}
	dropped := sp.ipB.Stats().Dropped
	injectFragment(t, sp, sess, second[0])
	injectFragment(t, sp, sess, second[0])
	injectFragment(t, sp, sess, second[2])
	if len(*lens) != 1 {
		t.Errorf("delivered %d PDUs, want only the first", len(*lens))
	}
	if sp.ipB.Stats().Dropped != dropped+1 {
		t.Errorf("Dropped rose by %d, want 1 for the holed datagram", sp.ipB.Stats().Dropped-dropped)
	}
	sp.eng.Shutdown()
}

func TestIPPartialStateEviction(t *testing.T) {
	// More concurrent half-finished reassemblies than maxPartials: the
	// oldest is abandoned and its buffers released; a subsequent complete
	// PDU still flows.
	sp := newStackPair(t, hostsim.DEC3000_600, 4096, driver.Config{Cache: driver.CacheNone})
	sess, lens := openRawIP(t, sp)
	for ident := uint32(100); ident < uint32(100+maxPartials+2); ident++ {
		frags := BuildUDPFragments(pattern(6000, byte(ident)), 1, 2, 1, 2, 4096, false, ident)
		injectFragment(t, sp, sess, frags[0]) // first fragment only: a hole
	}
	if got := len(sess.reasm); got > maxPartials {
		t.Errorf("reasm table holds %d partials, cap %d", got, maxPartials)
	}
	full := BuildUDPFragments(pattern(6000, 77), 1, 2, 1, 2, 4096, false, 999)
	for _, f := range full {
		injectFragment(t, sp, sess, f)
	}
	if len(*lens) != 1 {
		t.Errorf("complete PDU after eviction pressure: delivered %d", len(*lens))
	}
	if sp.ipB.Stats().Dropped == 0 {
		t.Error("no partials were dropped")
	}
	sp.eng.Shutdown()
}

func TestIPHeaderChecksumRejectsGarbage(t *testing.T) {
	sp := newStackPair(t, hostsim.DEC3000_600, 4096, driver.Config{Cache: driver.CacheNone})
	sess, lens := openRawIP(t, sp)
	frags := BuildUDPFragments(pattern(100, 1), 1, 2, 1, 2, 4096, false, 1)
	frag := append([]byte(nil), frags[0]...)
	frag[9] ^= 0xFF // corrupt the ident field; header checksum must catch it
	injectFragment(t, sp, sess, frag)
	if len(*lens) != 0 {
		t.Error("corrupted header accepted")
	}
	if sp.ipB.Stats().HdrErrors != 1 {
		t.Errorf("HdrErrors = %d, want 1", sp.ipB.Stats().HdrErrors)
	}
	sp.eng.Shutdown()
}

func TestIPLengthMismatchDropped(t *testing.T) {
	sp := newStackPair(t, hostsim.DEC3000_600, 4096, driver.Config{Cache: driver.CacheNone})
	sess, lens := openRawIP(t, sp)
	frags := BuildUDPFragments(pattern(100, 1), 1, 2, 1, 2, 4096, false, 1)
	frag := append([]byte(nil), frags[0]...)
	// Claim a larger payload than present, fixing up the checksum so only
	// the length check can object.
	binary.BigEndian.PutUint32(frag[4:], uint32(len(frag))) // wrong: includes header
	binary.BigEndian.PutUint16(frag[18:], hostsim.InternetChecksum(frag[:18]))
	injectFragment(t, sp, sess, frag)
	if len(*lens) != 0 {
		t.Error("length-mismatched fragment accepted")
	}
	sp.eng.Shutdown()
}

func TestRuntMessageDropped(t *testing.T) {
	sp := newStackPair(t, hostsim.DEC3000_600, 4096, driver.Config{Cache: driver.CacheNone})
	sess, lens := openRawIP(t, sp)
	injectFragment(t, sp, sess, []byte{1, 2, 3}) // shorter than any header
	if len(*lens) != 0 {
		t.Error("runt accepted")
	}
	if sp.ipB.Stats().Dropped != 1 {
		t.Errorf("Dropped = %d", sp.ipB.Stats().Dropped)
	}
	sp.eng.Shutdown()
}

func TestUDPTruncatedDatagramDropped(t *testing.T) {
	sp := newStackPair(t, hostsim.DEC3000_600, 16384, driver.Config{Cache: driver.CacheNone})
	tx, rx := sp.openUDP(t, 10, false)
	delivered := 0
	rx.SetHandler(func(p *sim.Proc, m *msg.Message) { delivered++ })
	_ = tx
	// Hand the UDP session a datagram whose header claims more payload
	// than the message carries.
	udpB := rx.(*udpSession)
	ipB := udpB.lower.(*ipSession)
	var hdr [UDPHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[4:], 500) // claims 500 bytes
	dgram := append(hdr[:], make([]byte, 100)...)
	// Wrap in a valid single IP fragment so only the UDP check trips.
	frag := make([]byte, IPHeaderSize+len(dgram))
	frag[0] = 0x45
	frag[1] = ProtoUDP
	frag[2], frag[3] = 1, 2
	binary.BigEndian.PutUint32(frag[4:], uint32(len(dgram)))
	binary.BigEndian.PutUint32(frag[8:], 31)
	frag[17] = 64
	binary.BigEndian.PutUint16(frag[18:], hostsim.InternetChecksum(frag[:18]))
	copy(frag[IPHeaderSize:], dgram)
	injectFragment(t, sp, ipB, frag)
	sp.eng.Shutdown()
	if delivered != 0 {
		t.Error("truncated datagram delivered")
	}
	if sp.udpB.Stats().Dropped != 1 {
		t.Errorf("Dropped = %d", sp.udpB.Stats().Dropped)
	}
}

func TestBuildUDPFragmentsMatchesLiveStack(t *testing.T) {
	// Cross-validation: the offline wire builder and the live stack must
	// produce byte-identical fragments for the same inputs.
	sp := newStackPair(t, hostsim.DEC3000_600, 4096, driver.Config{Cache: driver.CacheNone})
	payload := pattern(9000, 21)
	built := BuildUDPFragments(payload, 1, 2, 1, 2, 4096, true, 1)

	// Capture what the live stack emits by re-parsing B's deliveries at
	// the IP layer... simplest: drive the live sender and reassemble the
	// built fragments through a second session; both must deliver the
	// same UDP payload.
	tx, rx := sp.openUDP(t, 10, true)
	var live []byte
	rx.SetHandler(func(p *sim.Proc, m *msg.Message) { live, _ = m.Bytes() })
	sp.eng.Go("send", func(p *sim.Proc) {
		m, _ := msg.FromBytes(sp.hA.Kernel, payload)
		tx.Push(p, m)
		sp.dA.Flush(p)
	})
	sp.eng.Run()
	if !bytes.Equal(live, payload) {
		t.Fatal("live stack corrupted payload")
	}

	// Feed the built fragments through a fresh UDP session (via its IP
	// demux) and compare.
	udp2, err := sp.udpB.Open(UDPOpen{Remote: 1, VCI: 71, SrcPort: 2, DstPort: 1, Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	var rebuilt []byte
	udp2.SetHandler(func(p *sim.Proc, m *msg.Message) { rebuilt, _ = m.Bytes() })
	ipSess := udp2.(*udpSession).lower.(*ipSession)
	for _, f := range built {
		injectFragment(t, sp, ipSess, f)
	}
	if !bytes.Equal(rebuilt, payload) {
		t.Error("offline-built fragments did not reassemble to the payload")
	}
	sp.eng.Shutdown()
}
