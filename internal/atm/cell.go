// Package atm models the ATM substrate beneath the OSIRIS adaptor: 53-byte
// cells carrying 44-byte payloads (the AAL overhead of §2.5 costs 4 bytes
// of the standard 48-byte payload), an AAL5-style trailer for PDU
// delimitation and error detection, cell-level striping over four
// 155 Mbps links, and the bounded "skew" misordering the AURORA network
// introduced (§2.6).
package atm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/sim"
)

const (
	// CellPayload is the usable payload per cell: 44 bytes, because the
	// AAL header consumes 4 of the standard 48 (§2.5).
	CellPayload = 44
	// CellSize is the on-the-wire size of one cell.
	CellSize = 53
	// TrailerSize is the AAL5-style trailer carried in the final cell of
	// every PDU: 4 bytes of length and 4 of CRC-32.
	TrailerSize = 8
	// StripeWidth is the number of physical links striped into one
	// logical 622 Mbps channel.
	StripeWidth = 4
)

// VCI is a virtual circuit identifier. The x-kernel treats VCIs as an
// abundant resource, binding one per path/connection (§3.1).
type VCI uint16

// Cell is one ATM cell as the OSIRIS hardware sees it: the header fields
// the receive FIFO strips (VCI, AAL information) plus the payload. The
// fields are ordered so that a cell is 64 bytes, not 72.
type Cell struct {
	VCI VCI
	// EOM is the AAL5 framing bit. Under striping it is set on the last
	// cell of the PDU *on each physical link*, so the receiver can run
	// four concurrent AAL5 reassemblies (§2.6 strategy two).
	EOM bool
	// Last marks the very last cell of the PDU — the "one additional
	// framing bit in the ATM header" of §2.6, needed so PDUs shorter
	// than the stripe width still terminate.
	Last bool
	// CE is the congestion-experienced mark (the ATM EFCI bit, the
	// moral ancestor of IP ECN): a switch output port sets it when the
	// cell entered a queue whose occupancy had crossed the configured
	// mark threshold. The receiving transport echoes it back so senders
	// reduce their window before the queue reaches tail drop.
	CE bool
	// Len is the number of valid payload bytes. It is CellPayload for
	// every cell in normal operation; mid-PDU partial cells appear only
	// in the no-boundary-stop ablation of §2.5.2.
	Len int
	// Seq is the cell's index within its PDU, used only by the
	// sequence-number reassembly strategy (§2.6 strategy one).
	Seq     uint32
	Payload [CellPayload]byte
}

// CellStore returns e's cell store: the one counted pool of cell
// records that every link, switch and board on e takes from and puts
// back to (DESIGN §7 "Records"). A record has exactly one holder. It
// is taken where a cell is made — the transmit DMA controller, the
// fictitious-PDU generator, a link fault's duplicate, and the by-value
// edges (Link.Send, Link.SetReceiver, board.Board.InjectCell and
// board.Board.SetTxSink), which copy in or out. A successful send, a
// delivery callback or a receive-FIFO entry passes it to the next
// holder, and it is put back where the cell's fate is decided: a link
// loss, a switch drop, a receive-FIFO drop, or the receive processor
// done with the cell. The engine's quiesce check (sim.Engine.CheckPools)
// requires none out once the engine has run dry.
func CellStore(e *sim.Engine) *sim.Pool[*Cell] { return sim.PoolOf[Cell](e) }

// Trailer is the AAL5-style PDU trailer: the true PDU length (the rest of
// the final cell is padding) and a CRC-32 over the PDU contents.
type Trailer struct {
	Length uint32
	CRC    uint32
}

var crcTable = crc32.MakeTable(crc32.IEEE)

// Checksum returns the CRC-32 the trailer must carry for pdu.
func Checksum(pdu []byte) uint32 { return crc32.Checksum(pdu, crcTable) }

// CellsFor returns the number of cells needed to carry a PDU of n bytes
// plus its trailer.
func CellsFor(n int) int { return (n + TrailerSize + CellPayload - 1) / CellPayload }

// PutTrailer encodes tr into the final TrailerSize bytes of buf.
func PutTrailer(buf []byte, tr Trailer) {
	binary.BigEndian.PutUint32(buf[len(buf)-8:], tr.Length)
	binary.BigEndian.PutUint32(buf[len(buf)-4:], tr.CRC)
}

// ParseTrailer decodes the trailer from the final TrailerSize bytes of buf.
func ParseTrailer(buf []byte) Trailer {
	return Trailer{
		Length: binary.BigEndian.Uint32(buf[len(buf)-8:]),
		CRC:    binary.BigEndian.Uint32(buf[len(buf)-4:]),
	}
}

// Segment splits pdu into cells for transmission striped across width
// links (width 1 means no striping). The final cell carries zero padding
// and the trailer. When withSeq is set each cell also carries its index,
// for the sequence-number reassembly strategy.
//
// Framing: EOM is set on the last cell assigned to each link; Last on
// the final cell overall.
func Segment(vci VCI, pdu []byte, width int, withSeq bool) []Cell {
	return SegmentInto(nil, vci, pdu, width, withSeq)
}

// SegmentInto is Segment writing the cells into dst's storage, which it
// grows only when dst is too short, and returning them. Whatever dst
// held is overwritten: every field of every returned cell is set. Each
// cell's payload is copied straight from pdu and the trailer written
// into the last cell, so a PDU is copied once and checksummed once.
func SegmentInto(dst []Cell, vci VCI, pdu []byte, width int, withSeq bool) []Cell {
	if width <= 0 {
		panic("atm: Segment width must be positive")
	}
	n := CellsFor(len(pdu))
	if cap(dst) < n {
		dst = make([]Cell, n)
	}
	cells := dst[:n]
	for i := range cells {
		c := &cells[i]
		*c = Cell{VCI: vci, Len: CellPayload}
		if off := i * CellPayload; off < len(pdu) {
			copy(c.Payload[:], pdu[off:])
		}
		if withSeq {
			c.Seq = uint32(i)
		}
		// The last cell on link (i % width) is the one with the largest
		// index congruent to that link; equivalently, cells in the final
		// min(n, width) positions are each some link's last.
		if n-i <= width {
			c.EOM = true
		}
	}
	last := &cells[n-1]
	last.Last = true
	PutTrailer(last.Payload[:], Trailer{Length: uint32(len(pdu)), CRC: Checksum(pdu)})
	return cells
}

// Errors returned by Reassemble.
var (
	ErrBadLength = errors.New("atm: trailer length inconsistent with cell count")
	ErrBadCRC    = errors.New("atm: CRC mismatch")
	ErrNoCells   = errors.New("atm: no cells")
)

// Reassemble reconstructs a PDU from its cells in transmission order.
// It is the pure functional inverse of Segment, used by tests and by the
// simple (non-striped) reassembly path; the skew-tolerant stateful
// reassemblers live in the board package.
func Reassemble(cells []Cell) (VCI, []byte, error) {
	if len(cells) == 0 {
		return 0, nil, ErrNoCells
	}
	var buf []byte
	for i := range cells {
		buf = append(buf, cells[i].Payload[:cells[i].Len]...)
	}
	if len(buf) < TrailerSize {
		return 0, nil, ErrBadLength
	}
	tr := ParseTrailer(buf)
	if int(tr.Length) > len(buf)-TrailerSize {
		return 0, nil, fmt.Errorf("%w: length %d with %d payload bytes", ErrBadLength, tr.Length, len(buf))
	}
	pdu := buf[:tr.Length]
	if Checksum(pdu) != tr.CRC {
		return 0, nil, ErrBadCRC
	}
	return cells[0].VCI, pdu, nil
}
