package atm

import (
	"testing"
)

// paddedSegment is the padded-buffer segmentation SegmentInto replaced:
// the PDU is copied into a zeroed buffer of whole cells, the trailer is
// written at its end, and each cell copies its slice of that buffer.
func paddedSegment(vci VCI, pdu []byte, width int, withSeq bool) []Cell {
	n := CellsFor(len(pdu))
	padded := make([]byte, n*CellPayload)
	copy(padded, pdu)
	PutTrailer(padded, Trailer{Length: uint32(len(pdu)), CRC: Checksum(pdu)})
	cells := make([]Cell, n)
	for i := 0; i < n; i++ {
		c := &cells[i]
		c.VCI = vci
		c.Len = CellPayload
		copy(c.Payload[:], padded[i*CellPayload:(i+1)*CellPayload])
		if withSeq {
			c.Seq = uint32(i)
		}
		if n-i <= width {
			c.EOM = true
		}
	}
	cells[n-1].Last = true
	return cells
}

// dirtyCells returns n cells with every field and payload byte set to a
// non-zero pattern.
func dirtyCells(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		c := &cells[i]
		*c = Cell{VCI: 0xDEDE, EOM: true, Last: true, CE: true, Seq: 0xDEDEDEDE, Len: 0xDE}
		for j := range c.Payload {
			c.Payload[j] = 0xDE
		}
	}
	return cells
}

// FuzzSegmentIntoMatchesSegment checks SegmentInto against the padded
// segmentation it replaced, over PDU lengths 0–70 000, stripe widths
// 1–8 and both framing strategies. The destination is 0xDE-filled in
// every field and from slack cells short to slack cells long (too short
// means SegmentInto must allocate; long enough means it must reuse the
// storage). A second PDU is then segmented into the first's cells, so
// reuse also starts from real, dirty cells.
func FuzzSegmentIntoMatchesSegment(f *testing.F) {
	f.Add(uint32(0), uint8(4), false, uint8(0), byte(1))
	f.Add(uint32(36), uint8(4), true, uint8(5), byte(2))
	f.Add(uint32(37), uint8(1), false, uint8(9), byte(3))
	f.Add(uint32(40), uint8(4), false, uint8(3), byte(4))
	f.Add(uint32(16384), uint8(4), true, uint8(200), byte(5))
	f.Add(uint32(70000), uint8(8), false, uint8(1), byte(6))
	f.Fuzz(func(t *testing.T, size uint32, width uint8, withSeq bool, slack uint8, seed byte) {
		n := int(size % 70001)
		w := 1 + int(width%8)
		pdu := make([]byte, n)
		x := uint32(seed)*2654435761 + 1
		for i := range pdu {
			x = x*1664525 + 1013904223
			pdu[i] = byte(x >> 24)
		}
		check := func(what string, dst []Cell, pdu []byte) []Cell {
			t.Helper()
			want := paddedSegment(VCI(n), pdu, w, withSeq)
			got := SegmentInto(dst, VCI(n), pdu, w, withSeq)
			if len(got) != len(want) {
				t.Fatalf("%s: %d cells, want %d", what, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: cell %d of %d differs:\n got %+v\nwant %+v", what, i, len(want), got[i], want[i])
				}
			}
			if cap(dst) >= len(want) && &got[0] != &dst[:1][0] {
				t.Fatalf("%s: %d-cell dst with room for %d cells was not reused", what, cap(dst), len(want))
			}
			return got
		}
		cells := check("dirty", dirtyCells(max(CellsFor(n)+int(slack%16)-8, 0)), pdu)
		check("reused", cells, pdu[:n/3])
		check("nil", nil, pdu)
	})
}
