package atm

import (
	"bytes"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestCellIs64Bytes pins the field order of Cell: a cell record, and
// every copy at a by-value edge, is 64 bytes; with Len after Seq it
// would be 72.
func TestCellIs64Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Cell{}); n != 64 {
		t.Errorf("Cell is %d bytes, want 64", n)
	}
}

func TestCellsFor(t *testing.T) {
	cases := []struct{ n, cells int }{
		{0, 1},       // trailer alone needs one cell
		{1, 1},       // 1 + 8 = 9 ≤ 44
		{36, 1},      // 36 + 8 = 44 exactly
		{37, 2},      // 45 > 44
		{44, 2},      // 52 > 44
		{80, 2},      // 88 exactly
		{81, 3},      // 89
		{16384, 373}, // 16392/44 = 372.5...
	}
	for _, c := range cases {
		if got := CellsFor(c.n); got != c.cells {
			t.Errorf("CellsFor(%d) = %d, want %d", c.n, got, c.cells)
		}
	}
}

func TestSegmentReassembleRoundTrip(t *testing.T) {
	pdu := make([]byte, 1000)
	for i := range pdu {
		pdu[i] = byte(i * 7)
	}
	cells := Segment(42, pdu, StripeWidth, false)
	vci, got, err := Reassemble(cells)
	if err != nil {
		t.Fatal(err)
	}
	if vci != 42 {
		t.Errorf("vci = %d", vci)
	}
	if !bytes.Equal(got, pdu) {
		t.Error("payload mismatch")
	}
}

func TestSegmentFramingBits(t *testing.T) {
	pdu := make([]byte, 44*10) // 10 data cells + trailer spill → 11 cells
	cells := Segment(1, pdu, 4, false)
	n := len(cells)
	if n != CellsFor(len(pdu)) {
		t.Fatalf("cells = %d", n)
	}
	eom := 0
	for i, c := range cells {
		if c.EOM {
			eom++
			if n-i > 4 {
				t.Errorf("EOM set on cell %d of %d (not in final stripe round)", i, n)
			}
		}
		if c.Last != (i == n-1) {
			t.Errorf("Last wrong on cell %d", i)
		}
	}
	if eom != 4 {
		t.Errorf("EOM count = %d, want 4 (one per link)", eom)
	}
}

func TestSegmentShortPDUFraming(t *testing.T) {
	// A PDU of fewer cells than the stripe width: every cell is some
	// link's last, and the Last bit terminates the PDU (§2.6's "small
	// problem if a PDU is less than 4 cells long").
	cells := Segment(1, []byte("hi"), 4, false)
	if len(cells) != 1 {
		t.Fatalf("cells = %d", len(cells))
	}
	if !cells[0].EOM || !cells[0].Last {
		t.Error("single-cell PDU must have EOM and Last set")
	}
}

func TestSegmentSeqNumbers(t *testing.T) {
	pdu := make([]byte, 200)
	cells := Segment(1, pdu, 4, true)
	for i, c := range cells {
		if c.Seq != uint32(i) {
			t.Fatalf("cell %d has seq %d", i, c.Seq)
		}
	}
	noseq := Segment(1, pdu, 4, false)
	for _, c := range noseq {
		if c.Seq != 0 {
			t.Fatal("seq set when withSeq=false")
		}
	}
}

func TestSegmentAllCellsFull(t *testing.T) {
	cells := Segment(1, make([]byte, 123), 4, false)
	for i, c := range cells {
		if c.Len != CellPayload {
			t.Errorf("cell %d len = %d, want %d", i, c.Len, CellPayload)
		}
		if c.VCI != 1 {
			t.Errorf("cell %d vci = %d", i, c.VCI)
		}
	}
}

func TestReassembleDetectsCorruption(t *testing.T) {
	cells := Segment(1, []byte("the quick brown fox jumps over the lazy dog!"), 1, false)
	cells[0].Payload[3] ^= 0xFF
	if _, _, err := Reassemble(cells); err == nil {
		t.Error("corrupted payload reassembled without error")
	}
}

func TestReassembleDetectsMissingCell(t *testing.T) {
	pdu := make([]byte, 300)
	for i := range pdu {
		pdu[i] = byte(i)
	}
	cells := Segment(1, pdu, 1, false)
	if _, _, err := Reassemble(cells[1:]); err == nil {
		t.Error("reassembly with missing first cell succeeded")
	}
	if _, _, err := Reassemble(cells[:len(cells)-1]); err == nil {
		t.Error("reassembly with missing last cell succeeded")
	}
}

func TestReassembleEmpty(t *testing.T) {
	if _, _, err := Reassemble(nil); err != ErrNoCells {
		t.Errorf("err = %v, want ErrNoCells", err)
	}
}

func TestTrailerRoundTrip(t *testing.T) {
	buf := make([]byte, 44)
	PutTrailer(buf, Trailer{Length: 0xABCD, CRC: 0x1234_5678})
	tr := ParseTrailer(buf)
	if tr.Length != 0xABCD || tr.CRC != 0x1234_5678 {
		t.Errorf("trailer = %+v", tr)
	}
}

func TestZeroLengthPDU(t *testing.T) {
	cells := Segment(5, nil, 4, false)
	vci, pdu, err := Reassemble(cells)
	if err != nil {
		t.Fatal(err)
	}
	if vci != 5 || len(pdu) != 0 {
		t.Errorf("vci=%d len=%d", vci, len(pdu))
	}
}

// Property: Segment/Reassemble round-trips any payload at any stripe
// width, with and without sequence numbers.
func TestSegmentRoundTripQuick(t *testing.T) {
	f := func(pdu []byte, widthSeed uint8, withSeq bool) bool {
		width := int(widthSeed)%8 + 1
		cells := Segment(9, pdu, width, withSeq)
		vci, got, err := Reassemble(cells)
		if err != nil || vci != 9 {
			return false
		}
		return bytes.Equal(got, pdu) || (len(pdu) == 0 && len(got) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a single bit flip anywhere in any cell payload is detected
// (CRC-32 catches all single-bit errors).
func TestBitFlipDetectedQuick(t *testing.T) {
	f := func(pdu []byte, cellIdx, byteIdx uint8, bit uint8) bool {
		if len(pdu) == 0 {
			return true
		}
		cells := Segment(1, pdu, 4, false)
		ci := int(cellIdx) % len(cells)
		bi := int(byteIdx) % CellPayload
		cells[ci].Payload[bi] ^= 1 << (bit % 8)
		_, got, err := Reassemble(cells)
		if err != nil {
			return true // detected
		}
		// The flip may have landed in padding, in which case the PDU is
		// legitimately intact.
		return bytes.Equal(got, pdu)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
