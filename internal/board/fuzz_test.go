package board

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/atm"
	"repro/internal/mem"
	"repro/internal/queue"
)

// FuzzReasmIngest drives the reassembly state machine directly with
// arbitrary cell streams — malformed lengths, wild sequence numbers,
// replays, merged PDUs — and checks the two properties the firmware
// depends on: it never panics, and every receive buffer it pops is
// handed back exactly once (pushed, scratched, or aborted); a
// double-free here would corrupt the free-buffer accounting on real
// hardware.
func FuzzReasmIngest(f *testing.F) {
	// Seeds: a clean 3-cell PDU under each strategy, then malformed ones.
	clean := func(strat byte) []byte {
		var s []byte
		cells := atm.Segment(5, make([]byte, 100), 4, true)
		for i, c := range cells {
			rec := make([]byte, 6)
			binary.LittleEndian.PutUint16(rec[0:], uint16(c.Seq))
			rec[2] = byte(c.Len)
			if c.EOM {
				rec[3] |= 1
			}
			if c.Last {
				rec[3] |= 2
			}
			rec[4] = byte(i % 4)
			rec[5] = c.Payload[40] // one trailer byte of entropy
			s = append(s, rec...)
		}
		_ = strat
		return s
	}
	f.Add(byte(0), clean(0))
	f.Add(byte(1), clean(1))
	f.Add(byte(2), clean(2))
	f.Add(byte(1), []byte{0xff, 0xff, 0xff, 0x03, 0x00, 0x00}) // huge seq, Last, oversized len
	f.Add(byte(0), []byte{0x00, 0x00, 0x05, 0x02, 0x00, 0x00}) // Last shorter than the trailer
	f.Add(byte(2), []byte{0x00, 0x00, 0x00, 0x00, 0x07, 0x00}) // link out of range

	f.Fuzz(func(t *testing.T, strat byte, stream []byte) {
		const width = 4
		strategy := []ReassemblyStrategy{FourAAL5, SeqNum, ArrivalOrder}[int(strat)%3]
		rs := newReasmState(nil, 5, width)

		live := 0
		returned := map[mem.PhysAddr]int{}
		pop := func() (queue.Desc, bool) {
			if live >= 64 {
				return queue.Desc{}, false
			}
			live++
			return queue.Desc{Addr: mem.PhysAddr(live * 0x10000), Len: 256}, true
		}
		account := func(descs []queue.Desc) {
			for _, d := range descs {
				returned[d.Addr]++
			}
		}

		for len(stream) >= 6 {
			rec := stream[:6]
			stream = stream[6:]
			rc := rxCell{
				c: atm.Cell{
					VCI:  5,
					Seq:  uint32(binary.LittleEndian.Uint16(rec[0:])),
					Len:  int(rec[2]) - 100, // range [-100, 155]: exercises negative and oversized
					EOM:  rec[3]&1 != 0,
					Last: rec[3]&2 != 0,
				},
				link: int(rec[4]) % width,
			}
			if rc.c.Len > 0 {
				for i := 0; i < rc.c.Len && i < atm.CellPayload; i++ {
					rc.c.Payload[i] = rec[5] + byte(i)
				}
			}
			if rs.duplicate(strategy, rc) {
				continue
			}
			off, dataLen, complete, ok := rs.ingest(strategy, rc, width)
			if !ok {
				continue
			}
			if off < 0 || dataLen < 0 || dataLen > rc.c.Len {
				t.Fatalf("ingest returned off=%d dataLen=%d for len=%d", off, dataLen, rc.c.Len)
			}
			rs.record(off, rc.c.Payload[:dataLen])
			segs, _ := rs.extent(off, dataLen, nil, pop)
			total := 0
			for _, s := range segs {
				total += s.Len
			}
			if total > dataLen {
				t.Fatalf("extents cover %d bytes for a %d-byte write", total, dataLen)
			}
			if complete {
				rs.crcOK()
				pushes, scratch := rs.duePushes(true, nil, nil)
				account(pushes)
				account(scratch)
				rs = newReasmState(nil, 5, width)
			} else {
				if rs.errorDetected(width) {
					account(rs.abort(nil))
					rs = newReasmState(nil, 5, width)
					continue
				}
				pushes, _ := rs.duePushes(false, nil, nil)
				account(pushes)
			}
		}
		account(rs.abort(nil))

		if len(returned) != live {
			t.Fatalf("popped %d buffers, %d accounted for", live, len(returned))
		}
		for addr, n := range returned {
			if n != 1 {
				t.Fatalf("buffer %#x returned %d times", uint64(addr), n)
			}
		}
	})
}

// TestReasmResetMatchesNew: a reassembly state the receive processor
// reuses must start its next PDU exactly as a new one would, whatever
// the last PDU left in it.
func TestReasmResetMatchesNew(t *testing.T) {
	const width = 4
	for _, strategy := range []ReassemblyStrategy{FourAAL5, SeqNum, ArrivalOrder} {
		rs := newReasmState(nil, 5, width)
		live := 0
		pop := func() (queue.Desc, bool) {
			live++
			return queue.Desc{Addr: mem.PhysAddr(live * 0x10000), Len: 256}, true
		}
		cells := atm.Segment(5, make([]byte, 700), width, strategy == SeqNum)
		cells[3].CE = true
		for i, c := range cells {
			rc := rxCell{c: c, link: i % width}
			rs.markSeq(c.Seq)
			off, n, _, ok := rs.ingest(strategy, rc, width)
			if !ok {
				t.Fatalf("%v: cell %d rejected", strategy, i)
			}
			rs.record(off, c.Payload[:n])
			rs.extent(off, n, nil, pop)
		}
		rs.dropping = true
		rs.duePushes(true, nil, nil)
		rs.reset(nil, 9)
		if got, want := fmt.Sprintf("%+v", *rs), fmt.Sprintf("%+v", *newReasmState(nil, 9, width)); got != want {
			t.Errorf("%v: reset state\n%s\nwant\n%s", strategy, got, want)
		}
	}
}
