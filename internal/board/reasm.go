package board

import (
	"repro/internal/atm"
	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/sim"
)

// rxBuf is one host receive buffer being filled during reassembly.
type rxBuf struct {
	desc   queue.Desc
	base   int // PDU byte offset this buffer starts at
	got    int // bytes DMA'd into it so far
	pushed bool
}

// reasmState is the per-VCI reassembly machine (§2.6). It tracks cell
// placement under the configured skew strategy, the receive buffers
// covering the PDU, and completion.
type reasmState struct {
	ch  *Channel
	vci atm.VCI

	bufs    []rxBuf
	covered int // total bytes of buffer space allocated

	received int
	total    int // cell count, -1 until the Last cell reveals it
	pduLen   int // -1 until the trailer is parsed

	arrivalOff int    // ArrivalOrder placement cursor
	linkCount  []int  // FourAAL5: cells seen per physical link
	eomSeen    []bool // FourAAL5 framing bits observed
	dropping   bool
	lastSeen   bool
	ce         bool // any ingested cell carried the fabric's CE mark
	maxWritten int  // highest stream offset any cell has reached

	firstArrival sim.Time // first cell arrival; telemetry's reassembly span
	lastArrival  sim.Time // last cell arrival; drives Config.ReasmTimeout
	crcWant      uint32   // AAL5 trailer CRC, valid once lastSeen
	shadow       []byte   // firmware copy of PDU bytes (Config.CheckCRC)
	seenSeq      []uint64 // SeqNum duplicate bitmap (Config.RejectDuplicates)
}

func newReasmState(ch *Channel, vci atm.VCI, width int) *reasmState {
	rs := &reasmState{linkCount: make([]int, width), eomSeen: make([]bool, width)}
	rs.reset(ch, vci)
	return rs
}

// reset readies rs for a new PDU on vci, as newReasmState would, but
// keeps the storage of its slices.
func (rs *reasmState) reset(ch *Channel, vci atm.VCI) {
	clear(rs.linkCount)
	clear(rs.eomSeen)
	*rs = reasmState{
		ch:        ch,
		vci:       vci,
		total:     -1,
		pduLen:    -1,
		bufs:      rs.bufs[:0],
		shadow:    rs.shadow[:0],
		linkCount: rs.linkCount,
		eomSeen:   rs.eomSeen,
		seenSeq:   rs.seenSeq[:0],
	}
}

// wouldPlaceAt computes, without side effects, the PDU byte offset the
// given cell would be stored at — used for the double-cell combining
// peek (§2.5.1: "the microprocessor can look at two cell headers before
// deciding what to do with their associated payloads").
func (rs *reasmState) wouldPlaceAt(strategy ReassemblyStrategy, rc rxCell, width int) (int, bool) {
	switch strategy {
	case SeqNum:
		return int(rc.c.Seq) * atm.CellPayload, true
	case FourAAL5:
		if rc.c.Len != atm.CellPayload && !rc.c.Last {
			// Partial cells mid-PDU break the placement arithmetic —
			// the §2.5.2 complexity argument.
			return 0, false
		}
		return (rs.linkCount[rc.link]*width + rc.link) * atm.CellPayload, true
	default: // ArrivalOrder
		return rs.arrivalOff, true
	}
}

// ingest commits one cell to the reassembly: it computes the placement
// offset, updates per-link/arrival counters, learns the PDU length from
// the Last cell's trailer, and reports whether the PDU is now complete.
// dataLen is the number of payload bytes that must actually be written
// to host memory (pad and trailer bytes beyond the PDU length are
// suppressed once the length is known).
func (rs *reasmState) ingest(strategy ReassemblyStrategy, rc rxCell, width int) (off, dataLen int, complete, ok bool) {
	// Firmware sanity check on the cell header: a negative or oversized
	// payload length can't have come off a real link, and a Last cell
	// must at least hold the trailer ParseTrailer is about to read.
	if rc.c.Len < 0 || rc.c.Len > atm.CellPayload || (rc.c.Last && rc.c.Len < atm.TrailerSize) {
		return 0, 0, false, false
	}
	off, ok = rs.wouldPlaceAt(strategy, rc, width)
	if !ok {
		return 0, 0, false, false
	}
	if rc.c.CE {
		rs.ce = true
	}
	switch strategy {
	case SeqNum:
		rs.markSeq(rc.c.Seq)
	case FourAAL5:
		rs.linkCount[rc.link]++
	case ArrivalOrder:
		rs.arrivalOff += rc.c.Len
	}
	if rc.c.EOM {
		rs.eomSeen[rc.link] = true
	}
	rs.received++
	if end := off + rc.c.Len; end > rs.maxWritten {
		rs.maxWritten = end
	}

	if rc.c.Last {
		rs.lastSeen = true
		// The receive processor sees the whole cell in its FIFO, so it
		// can parse the AAL5 trailer before issuing any DMA (§2.5.2's
		// "stop filling the page" problem never arises: pad and trailer
		// bytes simply are not written to host memory).
		tr := atm.ParseTrailer(rc.c.Payload[:rc.c.Len])
		rs.pduLen = int(tr.Length)
		rs.crcWant = tr.CRC
		switch strategy {
		case SeqNum:
			rs.total = int(rc.c.Seq) + 1
		case FourAAL5:
			rs.total = (rs.linkCount[rc.link]-1)*width + rc.link + 1
		default:
			rs.total = rs.received
		}
	}

	dataLen = rc.c.Len
	if rs.pduLen >= 0 {
		// Clamp to the true data extent.
		if off >= rs.pduLen {
			dataLen = 0
		} else if off+dataLen > rs.pduLen {
			dataLen = rs.pduLen - off
		}
	}
	complete = rs.isComplete(strategy, width)
	return off, dataLen, complete, true
}

// isComplete applies the full AAL5 completion predicate. For the
// placement strategies it demands agreement among three independent
// observations — the per-link framing bits, the received cell count,
// and the cell count implied by the trailer's length — so a PDU with
// any cell lost in the network can never be declared complete.
func (rs *reasmState) isComplete(strategy ReassemblyStrategy, width int) bool {
	if rs.total < 0 {
		return false
	}
	if strategy == ArrivalOrder {
		return rs.received >= rs.total
	}
	return rs.received == rs.total &&
		rs.allEOM(width) &&
		atm.CellsFor(rs.pduLen) == rs.total
}

// allEOM reports whether the EOM framing bit has been seen on every
// link that carries part of this PDU (valid once total is known).
func (rs *reasmState) allEOM(width int) bool {
	carrying := rs.total
	if carrying > width {
		carrying = width
	}
	for l := 0; l < carrying; l++ {
		if !rs.eomSeen[l] {
			return false
		}
	}
	return true
}

// errorDetected implements the AAL5-style loss check: every physical
// link delivers in order, so once each link carrying part of this PDU
// has shown its EOM framing bit, every transmitted cell has either
// arrived or been lost. Any disagreement at that point — a count
// shortfall, an excess from a merged successor PDU, or a cell count
// inconsistent with the trailer's length — means cells were lost, and
// the PDU is in error (the §2.3 premise that "mechanisms for detecting
// or tolerating transmission errors are already in place").
func (rs *reasmState) errorDetected(width int) bool {
	if rs.total < 0 || !rs.allEOM(width) {
		return false
	}
	return rs.received != rs.total || atm.CellsFor(rs.pduLen) != rs.total
}

// addBuf appends receive buffer d, which covers the next d.Len bytes
// of the PDU. The receive processor pops buffers while off+n > covered
// for the bytes [off, off+n) a cell writes, then slices them.
func (rs *reasmState) addBuf(d queue.Desc) {
	rs.bufs = append(rs.bufs, rxBuf{desc: d, base: rs.covered})
	rs.covered += int(d.Len)
}

// slice returns the host-memory extents covering [off, off+n) of the
// PDU appended to segs (a caller-supplied scratch slice), split across
// buffer boundaries: the receive-side analogue of the boundary-stop
// DMA. The buffers must already cover the range.
func (rs *reasmState) slice(off, n int, segs []mem.PhysBuffer) []mem.PhysBuffer {
	if n == 0 {
		return segs
	}
	// Locate the buffer containing off (linear scan; buffer lists are
	// short) and slice the range across boundaries.
	for i := range rs.bufs {
		b := &rs.bufs[i]
		bufEnd := b.base + int(b.desc.Len)
		if off >= bufEnd || off+n <= b.base {
			continue
		}
		start := off
		if start < b.base {
			start = b.base
		}
		end := off + n
		if end > bufEnd {
			end = bufEnd
		}
		segs = append(segs, mem.PhysBuffer{
			Addr: b.desc.Addr + mem.PhysAddr(start-b.base),
			Len:  end - start,
		})
		b.got += end - start
	}
	return segs
}

// maxPadSpan bounds how far pad+trailer bytes can reach back from the
// end of the cell stream: at most 7 bytes of pad in the penultimate
// cell plus a full final cell.
const maxPadSpan = atm.CellPayload + atm.TrailerSize - 1

// duePushes returns descriptors that have become publishable, in stream
// order (the host expects a PDU's buffers in order). Interior buffers
// completely filled with PDU data stream to the host before the PDU
// finishes ("when the buffer is filled ... the processor adds the buffer
// to the receive queue", §2.1.1); on completion the remaining buffers
// follow, the final one flagged EOP and carrying the PDU length in Aux.
// Wholly-scrap buffers (pad/trailer bytes written beyond the PDU data
// before the length was known) are recycled onto stash. Both lists are
// the caller's, appended to and returned.
func (rs *reasmState) duePushes(complete bool, pushes, stash []queue.Desc) ([]queue.Desc, []queue.Desc) {
	if complete {
		return rs.finalPushes(pushes, stash)
	}
	for i := range rs.bufs {
		b := &rs.bufs[i]
		if b.pushed {
			continue
		}
		if b.got < int(b.desc.Len) {
			break // in-order constraint: later buffers must wait
		}
		end := b.base + int(b.desc.Len)
		allData := false
		if rs.pduLen >= 0 {
			allData = end <= rs.pduLen
		} else {
			// Length unknown: safe only when the stream provably extends
			// beyond any possible pad region.
			allData = rs.maxWritten >= end+maxPadSpan
		}
		if !allData {
			break
		}
		d := b.desc
		d.VCI = rs.vci
		d.Flags = 0
		b.pushed = true
		pushes = append(pushes, d)
	}
	return pushes, stash
}

func (rs *reasmState) finalPushes(pushes, stash []queue.Desc) ([]queue.Desc, []queue.Desc) {
	lastDataBuf := 0
	for i := range rs.bufs {
		if rs.bufs[i].base < rs.pduLen {
			lastDataBuf = i
		}
	}
	for i := range rs.bufs {
		b := &rs.bufs[i]
		if b.pushed {
			continue
		}
		dataBytes := rs.pduLen - b.base
		if dataBytes > int(b.desc.Len) {
			dataBytes = int(b.desc.Len)
		}
		if dataBytes < 0 {
			dataBytes = 0
		}
		b.pushed = true
		if i > lastDataBuf {
			// Pure scrap beyond the data: recycle silently.
			stash = append(stash, b.desc)
			continue
		}
		d := b.desc
		d.Len = uint32(dataBytes)
		d.VCI = rs.vci
		if i == lastDataBuf {
			d.Flags = queue.FlagEOP
			if rs.ce {
				d.Flags |= queue.FlagCE
			}
			d.Aux = uint32(rs.pduLen)
		} else {
			d.Flags = 0
		}
		pushes = append(pushes, d)
	}
	return pushes, stash
}

// maxTrackedSeq bounds the SeqNum duplicate bitmap: sequence numbers at
// or beyond it are not tracked (a 2^32 Seq would otherwise let a single
// malformed cell allocate a 512 MB bitmap). 2^16 cells covers a 2.8 MB
// PDU — far past any MTU this board carries.
const maxTrackedSeq = 1 << 16

// duplicate reports whether rc replays a cell this reassembly already
// ingested. Exact detection is only possible under SeqNum (each cell
// names its slot); every strategy can at least recognize a second Last
// cell. FourAAL5's per-link counters cannot distinguish a duplicate
// from a merged successor PDU — that case is left to errorDetected.
func (rs *reasmState) duplicate(strategy ReassemblyStrategy, rc rxCell) bool {
	if rc.c.Last && rs.lastSeen {
		return true
	}
	return strategy == SeqNum && rs.seqSeen(rc.c.Seq)
}

func (rs *reasmState) seqSeen(seq uint32) bool {
	if seq >= maxTrackedSeq {
		return false
	}
	w, bit := int(seq/64), seq%64
	return w < len(rs.seenSeq) && rs.seenSeq[w]&(1<<bit) != 0
}

func (rs *reasmState) markSeq(seq uint32) {
	if seq >= maxTrackedSeq {
		return
	}
	w, bit := int(seq/64), seq%64
	for w >= len(rs.seenSeq) {
		rs.seenSeq = append(rs.seenSeq, 0)
	}
	rs.seenSeq[w] |= 1 << bit
}

// record mirrors a cell's accepted payload bytes into the firmware
// shadow copy that crcOK verifies (Config.CheckCRC only). It receives
// exactly the clamped byte range the DMA writes, so the shadow matches
// host memory byte for byte.
func (rs *reasmState) record(off int, data []byte) {
	if need := off + len(data); need > len(rs.shadow) {
		if need > cap(rs.shadow) {
			grown := make([]byte, need)
			copy(grown, rs.shadow)
			rs.shadow = grown
		} else {
			rs.shadow = rs.shadow[:need]
		}
	}
	copy(rs.shadow[off:], data)
}

// crcOK recomputes the AAL5 CRC over the shadow copy and compares it
// with the trailer's value. Only meaningful once the PDU is complete.
func (rs *reasmState) crcOK() bool {
	return rs.pduLen >= 0 && len(rs.shadow) >= rs.pduLen &&
		atm.Checksum(rs.shadow[:rs.pduLen]) == rs.crcWant
}

// anyPushed reports whether any of the reassembly's buffers already
// streamed to the host — if so, abandoning it must send an abort marker
// after them.
func (rs *reasmState) anyPushed() bool {
	for i := range rs.bufs {
		if rs.bufs[i].pushed {
			return true
		}
	}
	return false
}

// abort appends every un-pushed buffer to stash for recycling when
// reassembly is abandoned, and returns stash.
func (rs *reasmState) abort(stash []queue.Desc) []queue.Desc {
	for i := range rs.bufs {
		if !rs.bufs[i].pushed {
			rs.bufs[i].pushed = true
			stash = append(stash, rs.bufs[i].desc)
		}
	}
	return stash
}
