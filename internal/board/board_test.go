package board

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/dpm"
	"repro/internal/hostsim"
	"repro/internal/queue"
	"repro/internal/sim"
)

// rig is a one-host test bench around a board.
type rig struct {
	eng  *sim.Engine
	host *hostsim.Host
	b    *Board
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	e := sim.NewEngine(42)
	h := hostsim.New(e, hostsim.DEC3000_600(), 2048)
	b := New(e, h, cfg)
	return &rig{eng: e, host: h, b: b}
}

// storeCell takes a record from b's cell store holding c, as a link
// delivery hands the board one.
func storeCell(b *Board, c atm.Cell) *atm.Cell {
	r := sim.TakeNew(b.cells)
	*r = c
	return r
}

func pattern(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i)*3 + seed
	}
	return out
}

// writePDU stores data in host memory as a chain of physically
// contiguous buffers of the given sizes and returns their descriptors.
func (r *rig) writePDU(t *testing.T, data []byte, sizes []int, vci atm.VCI) []queue.Desc {
	t.Helper()
	var descs []queue.Desc
	off := 0
	for i, size := range sizes {
		frames, err := r.host.Mem.AllocContiguous((size + r.host.Mem.PageSize() - 1) / r.host.Mem.PageSize())
		if err != nil {
			t.Fatal(err)
		}
		pa := r.host.Mem.FrameAddr(frames[0])
		r.host.Mem.Write(pa, data[off:off+size])
		d := queue.Desc{Addr: pa, Len: uint32(size), VCI: vci}
		if i == len(sizes)-1 {
			d.Flags = queue.FlagEOP
		}
		descs = append(descs, d)
		off += size
	}
	if off != len(data) {
		t.Fatalf("sizes sum %d != data %d", off, len(data))
	}
	return descs
}

// supplyFree pushes n receive buffers of the given size onto a channel's
// free ring, returning their descriptors.
func (r *rig) supplyFree(t *testing.T, p *sim.Proc, ch *Channel, n, size int) []queue.Desc {
	t.Helper()
	var descs []queue.Desc
	for i := 0; i < n; i++ {
		frames, err := r.host.Mem.AllocContiguous((size + r.host.Mem.PageSize() - 1) / r.host.Mem.PageSize())
		if err != nil {
			t.Fatal(err)
		}
		d := queue.Desc{Addr: r.host.Mem.FrameAddr(frames[0]), Len: uint32(size)}
		if !ch.FreeRing.TryPush(p, dpm.Host, d) {
			t.Fatal("free ring full")
		}
		descs = append(descs, d)
	}
	return descs
}

// recvPDU polls a channel's receive ring until a full PDU (through EOP)
// arrives, gathers its bytes from host memory, and returns them.
func (r *rig) recvPDU(p *sim.Proc, ch *Channel, timeout time.Duration) ([]byte, bool) {
	deadline := p.Now().Add(timeout)
	var out []byte
	for {
		d, ok := ch.RecvRing.TryPop(p, dpm.Host)
		if !ok {
			if p.Now() >= deadline {
				return nil, false
			}
			p.Sleep(2 * time.Microsecond)
			continue
		}
		out = append(out, r.host.Mem.Read(d.Addr, int(d.Len))...)
		if d.Flags&queue.FlagEOP != 0 {
			return out, true
		}
	}
}

// sendPDU pushes a descriptor chain on the kernel tx ring and kicks the
// board.
func (r *rig) sendPDU(t *testing.T, p *sim.Proc, ch *Channel, descs []queue.Desc) {
	t.Helper()
	for _, d := range descs {
		for !ch.TxRing.TryPush(p, dpm.Host, d) {
			p.Sleep(5 * time.Microsecond)
			r.b.KickTx()
		}
	}
	r.b.KickTx()
}

func TestTransmitSegmentsPDUCorrectly(t *testing.T) {
	r := newRig(t, Config{})
	r.b.BindVCI(7, 0)
	data := pattern(1000, 1)
	var cells []atm.Cell
	r.b.SetTxSink(func(c atm.Cell, link int) { cells = append(cells, c) })
	descs := r.writePDU(t, data, []int{1000}, 7)
	r.eng.Go("host", func(p *sim.Proc) { r.sendPDU(t, p, r.b.KernelChannel(), descs) })
	r.eng.Run()
	r.eng.Shutdown()

	if want := atm.CellsFor(1000); len(cells) != want {
		t.Fatalf("cells = %d, want %d", len(cells), want)
	}
	vci, got, err := atm.Reassemble(cells)
	if err != nil {
		t.Fatal(err)
	}
	if vci != 7 || !bytes.Equal(got, data) {
		t.Error("transmit round trip mismatch")
	}
	if r.b.Stats().PDUsTx != 1 {
		t.Errorf("PDUsTx = %d", r.b.Stats().PDUsTx)
	}
}

// The transmit DMA controller gathers each cell straight into a cell
// record and zeroes its pad, so back-to-back PDUs leave the board as
// exactly the cells atm.Segment makes of them, header and every
// payload byte alike; the sink gets copies, and every record is back
// in the store once the engine drains.
func TestTransmittedCellsMatchSegment(t *testing.T) {
	r := newRig(t, Config{})
	defer r.eng.Shutdown()
	r.b.BindVCI(7, 0)
	var cells []atm.Cell
	r.b.SetTxSink(func(c atm.Cell, link int) { cells = append(cells, c) })
	pdus := [][]byte{pattern(1000, 1), pattern(50, 2), pattern(81, 3)}
	var want []atm.Cell
	for _, pdu := range pdus {
		want = append(want, atm.Segment(7, pdu, r.b.Config().StripeWidth, false)...)
	}
	r.eng.Go("host", func(p *sim.Proc) {
		for _, pdu := range pdus {
			r.sendPDU(t, p, r.b.KernelChannel(), r.writePDU(t, pdu, []int{len(pdu)}, 7))
		}
	})
	r.eng.Run()
	if len(cells) != len(want) {
		t.Fatalf("board sent %d cells, want %d", len(cells), len(want))
	}
	for i := range want {
		if cells[i] != want[i] {
			t.Fatalf("cell %d differs from Segment's:\nboard:   %+v\nSegment: %+v", i, cells[i], want[i])
		}
	}
	if err := r.eng.CheckPools(); err != nil {
		t.Error(err)
	}
}

func TestTransmitLinkAssignmentPerPDU(t *testing.T) {
	r := newRig(t, Config{})
	r.b.BindVCI(7, 0)
	var links []int
	r.b.SetTxSink(func(c atm.Cell, link int) { links = append(links, link) })
	data := pattern(400, 2) // 10 cells
	descs := r.writePDU(t, data, []int{400}, 7)
	r.eng.Go("host", func(p *sim.Proc) { r.sendPDU(t, p, r.b.KernelChannel(), descs) })
	r.eng.Run()
	r.eng.Shutdown()
	for i, l := range links {
		if l != i%4 {
			t.Fatalf("cell %d on link %d, want %d", i, l, i%4)
		}
	}
}

func TestTransmitChainedBuffersSplitCells(t *testing.T) {
	// A 28-byte header buffer followed by a body: the first cell spans
	// the buffer boundary and must be composed from two DMA segments
	// under the boundary-stop policy (§2.5.2).
	r := newRig(t, Config{})
	r.b.BindVCI(9, 0)
	var cells []atm.Cell
	r.b.SetTxSink(func(c atm.Cell, link int) { cells = append(cells, c) })
	data := pattern(28+500, 3)
	descs := r.writePDU(t, data, []int{28, 500}, 9)
	r.eng.Go("host", func(p *sim.Proc) { r.sendPDU(t, p, r.b.KernelChannel(), descs) })
	r.eng.Run()
	r.eng.Shutdown()
	_, got, err := atm.Reassemble(cells)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("chained-buffer PDU corrupted")
	}
	if r.b.Stats().SplitCellsTx == 0 {
		t.Error("no split cells recorded for a misaligned chain")
	}
	if r.b.Stats().PartialCellsTx != 0 {
		t.Error("boundary-stop policy emitted partial cells")
	}
}

func TestFixedCellPolicyEmitsPartialCells(t *testing.T) {
	r := newRig(t, Config{TxPolicy: FixedCell, Strategy: ArrivalOrder})
	r.b.BindVCI(9, 0)
	var cells []atm.Cell
	r.b.SetTxSink(func(c atm.Cell, link int) { cells = append(cells, c) })
	data := pattern(28+500, 4)
	descs := r.writePDU(t, data, []int{28, 500}, 9)
	r.eng.Go("host", func(p *sim.Proc) { r.sendPDU(t, p, r.b.KernelChannel(), descs) })
	r.eng.Run()
	r.eng.Shutdown()
	if r.b.Stats().PartialCellsTx == 0 {
		t.Error("fixed-cell policy produced no partial cells for a 28-byte header")
	}
	// Functionally the concatenation still reassembles.
	_, got, err := atm.Reassemble(cells)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("partial-cell PDU corrupted")
	}
}

func TestReceiveDeliversPDU(t *testing.T) {
	r := newRig(t, Config{})
	ch := r.b.KernelChannel()
	r.b.BindVCI(5, 0)
	data := pattern(5000, 5)
	var got []byte
	var ok bool
	r.eng.Go("host", func(p *sim.Proc) {
		r.supplyFree(t, p, ch, 8, 16384)
		cells := atm.Segment(5, data, 4, false)
		for i := range cells {
			r.b.InjectCell(cells[i], i%4)
			p.Sleep(700 * time.Nanosecond)
		}
		got, ok = r.recvPDU(p, ch, 10*time.Millisecond)
	})
	r.eng.Run()
	r.eng.Shutdown()
	if !ok {
		t.Fatal("PDU not delivered")
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("payload mismatch: got %d bytes", len(got))
	}
	if r.b.Stats().PDUsRx != 1 {
		t.Errorf("PDUsRx = %d", r.b.Stats().PDUsRx)
	}
}

func TestReceiveMultiBufferPDU(t *testing.T) {
	// A 5000-byte PDU into 2048-byte buffers: must span 3 buffers, with
	// interior buffers streamed before completion and the EOP descriptor
	// carrying the PDU length.
	r := newRig(t, Config{})
	ch := r.b.KernelChannel()
	r.b.BindVCI(5, 0)
	data := pattern(5000, 6)
	var descs []queue.Desc
	r.eng.Go("host", func(p *sim.Proc) {
		r.supplyFree(t, p, ch, 8, 2048)
		cells := atm.Segment(5, data, 4, false)
		for i := range cells {
			r.b.InjectCell(cells[i], i%4)
			p.Sleep(700 * time.Nanosecond)
		}
		deadline := p.Now().Add(20 * time.Millisecond)
		for {
			d, popped := ch.RecvRing.TryPop(p, dpm.Host)
			if popped {
				descs = append(descs, d)
				if d.Flags&queue.FlagEOP != 0 {
					return
				}
			} else if p.Now() >= deadline {
				return
			} else {
				p.Sleep(2 * time.Microsecond)
			}
		}
	})
	r.eng.Run()
	r.eng.Shutdown()
	if len(descs) != 3 {
		t.Fatalf("descs = %d, want 3 (2048+2048+904)", len(descs))
	}
	if descs[0].Len != 2048 || descs[1].Len != 2048 || descs[2].Len != 904 {
		t.Errorf("desc lens = %d,%d,%d", descs[0].Len, descs[1].Len, descs[2].Len)
	}
	eop := descs[2]
	if eop.Aux != 5000 {
		t.Errorf("EOP Aux = %d, want 5000", eop.Aux)
	}
	var got []byte
	for _, d := range descs {
		got = append(got, r.host.Mem.Read(d.Addr, int(d.Len))...)
	}
	if !bytes.Equal(got, data) {
		t.Error("multi-buffer payload mismatch")
	}
}

// injectSkewed delivers a PDU's cells the way skewed striped links
// would: per-link order preserved, but one link delayed by `lag` cells.
func injectSkewed(r *rig, p *sim.Proc, cells []atm.Cell, lagLink, lag int) {
	perLink := make([][]atm.Cell, 4)
	for i := range cells {
		perLink[i%4] = append(perLink[i%4], cells[i])
	}
	idx := make([]int, 4)
	for round := 0; ; round++ {
		progress := false
		for l := 0; l < 4; l++ {
			turn := round
			if l == lagLink {
				turn = round - lag // this link runs behind
			}
			if turn >= 0 && idx[l] < len(perLink[l]) && idx[l] <= turn {
				r.b.InjectCell(perLink[l][idx[l]], l)
				idx[l]++
				progress = true
				p.Sleep(700 * time.Nanosecond)
			}
		}
		done := true
		for l := 0; l < 4; l++ {
			if idx[l] < len(perLink[l]) {
				done = false
			}
		}
		if done {
			return
		}
		if !progress {
			p.Sleep(700 * time.Nanosecond)
		}
	}
}

func TestFourAAL5ReassemblyToleratesSkew(t *testing.T) {
	r := newRig(t, Config{Strategy: FourAAL5})
	ch := r.b.KernelChannel()
	r.b.BindVCI(5, 0)
	data := pattern(4000, 7)
	var got []byte
	var ok bool
	r.eng.Go("host", func(p *sim.Proc) {
		r.supplyFree(t, p, ch, 8, 16384)
		cells := atm.Segment(5, data, 4, false)
		injectSkewed(r, p, cells, 1, 3)
		got, ok = r.recvPDU(p, ch, 20*time.Millisecond)
	})
	r.eng.Run()
	r.eng.Shutdown()
	if !ok {
		t.Fatal("skewed PDU not delivered")
	}
	if !bytes.Equal(got, data) {
		t.Error("four-AAL5 reassembly corrupted under skew")
	}
}

func TestSeqNumReassemblyToleratesSkew(t *testing.T) {
	r := newRig(t, Config{Strategy: SeqNum})
	ch := r.b.KernelChannel()
	r.b.BindVCI(5, 0)
	data := pattern(4000, 8)
	var got []byte
	var ok bool
	r.eng.Go("host", func(p *sim.Proc) {
		r.supplyFree(t, p, ch, 8, 16384)
		cells := atm.Segment(5, data, 4, true)
		injectSkewed(r, p, cells, 2, 5)
		got, ok = r.recvPDU(p, ch, 20*time.Millisecond)
	})
	r.eng.Run()
	r.eng.Shutdown()
	if !ok {
		t.Fatal("skewed PDU not delivered")
	}
	if !bytes.Equal(got, data) {
		t.Error("seqnum reassembly corrupted under skew")
	}
}

func TestArrivalOrderCorruptsUnderSkew(t *testing.T) {
	// The ablation: arrival-order placement is only correct without
	// skew; with a lagging link the payload must NOT reassemble
	// correctly (this is why the strategies exist).
	r := newRig(t, Config{Strategy: ArrivalOrder})
	ch := r.b.KernelChannel()
	r.b.BindVCI(5, 0)
	data := pattern(4000, 9)
	var got []byte
	var ok bool
	r.eng.Go("host", func(p *sim.Proc) {
		r.supplyFree(t, p, ch, 8, 16384)
		cells := atm.Segment(5, data, 4, false)
		injectSkewed(r, p, cells, 1, 3)
		got, ok = r.recvPDU(p, ch, 20*time.Millisecond)
	})
	r.eng.Run()
	r.eng.Shutdown()
	if ok && bytes.Equal(got, data) {
		t.Error("arrival-order reassembly survived skew; ablation should corrupt")
	}
}

func TestInterruptSuppressionOnBurst(t *testing.T) {
	// A burst of PDUs delivered while the host is slow to drain must
	// raise far fewer interrupts than PDUs (§2.1.2).
	r := newRig(t, Config{})
	ch := r.b.KernelChannel()
	r.b.BindVCI(5, 0)
	const pdus = 20
	data := pattern(1000, 10)
	received := 0
	r.eng.Go("feeder", func(p *sim.Proc) {
		r.supplyFree(t, p, ch, 63, 2048)
		for k := 0; k < pdus; k++ {
			cells := atm.Segment(5, data, 4, false)
			for i := range cells {
				r.b.InjectCell(cells[i], i%4)
				p.Sleep(700 * time.Nanosecond)
			}
		}
	})
	r.eng.Go("slow-host", func(p *sim.Proc) {
		p.Sleep(time.Millisecond) // let the burst land first
		for received < pdus {
			if _, popped := ch.RecvRing.TryPop(p, dpm.Host); popped {
				received++
			} else {
				p.Sleep(10 * time.Microsecond)
			}
		}
	})
	r.eng.Run()
	r.eng.Shutdown()
	if received != pdus {
		t.Fatalf("received %d PDUs", received)
	}
	if irqs := r.b.Stats().RxIRQs; irqs >= pdus/2 {
		t.Errorf("RxIRQs = %d for %d PDUs; suppression ineffective", irqs, pdus)
	}
}

func TestReceiveInterruptPerIsolatedPDU(t *testing.T) {
	// Isolated arrivals (host drains between PDUs) get one interrupt
	// each — low latency for individually arriving packets (§2.1.2).
	r := newRig(t, Config{})
	ch := r.b.KernelChannel()
	r.b.BindVCI(5, 0)
	data := pattern(500, 11)
	r.eng.Go("host", func(p *sim.Proc) {
		r.supplyFree(t, p, ch, 16, 2048)
		for k := 0; k < 5; k++ {
			cells := atm.Segment(5, data, 4, false)
			for i := range cells {
				r.b.InjectCell(cells[i], i%4)
				p.Sleep(700 * time.Nanosecond)
			}
			if _, popped := r.recvPDU(p, ch, 10*time.Millisecond); !popped {
				t.Error("PDU lost")
			}
			p.Sleep(100 * time.Microsecond)
		}
	})
	r.eng.Run()
	r.eng.Shutdown()
	if irqs := r.b.Stats().RxIRQs; irqs != 5 {
		t.Errorf("RxIRQs = %d, want 5 (one per isolated PDU)", irqs)
	}
}

func TestDoubleCellCombiningInOrder(t *testing.T) {
	r := newRig(t, Config{RxDMA: DoubleCell})
	ch := r.b.KernelChannel()
	r.b.BindVCI(5, 0)
	data := pattern(8800, 12) // 200+ cells
	r.eng.Go("host", func(p *sim.Proc) {
		r.supplyFree(t, p, ch, 8, 16384)
		cells := atm.Segment(5, data, 4, false)
		// Deliver back-to-back so the FIFO always holds a peekable next
		// cell.
		for i := range cells {
			r.b.InjectCell(cells[i], i%4)
			if i%8 == 7 {
				p.Sleep(3 * time.Microsecond)
			}
		}
		got, ok := r.recvPDU(p, ch, 50*time.Millisecond)
		if !ok || !bytes.Equal(got, data) {
			t.Error("double-cell PDU corrupted")
		}
	})
	r.eng.Run()
	r.eng.Shutdown()
	s := r.b.Stats()
	if s.CombinedDMAs == 0 {
		t.Error("no combined DMAs for an in-order stream")
	}
	if s.CombinedDMAs < s.SingleDMAs {
		t.Errorf("combined=%d < single=%d; combining ineffective in-order", s.CombinedDMAs, s.SingleDMAs)
	}
}

func TestSkewSuppressesCombining(t *testing.T) {
	// §2.6: "Once skew is introduced, the probability that two successive
	// cells will be received in order is greatly reduced."
	run := func(lag int) (combined, single int64) {
		r := newRig(t, Config{RxDMA: DoubleCell, Strategy: FourAAL5})
		ch := r.b.KernelChannel()
		r.b.BindVCI(5, 0)
		data := pattern(8800, 13)
		r.eng.Go("host", func(p *sim.Proc) {
			r.supplyFree(t, p, ch, 8, 16384)
			cells := atm.Segment(5, data, 4, false)
			injectSkewedBackToBack(r, p, cells, 1, lag)
			if got, ok := r.recvPDU(p, ch, 50*time.Millisecond); !ok || !bytes.Equal(got, data) {
				t.Error("PDU corrupted")
			}
		})
		r.eng.Run()
		r.eng.Shutdown()
		s := r.b.Stats()
		return s.CombinedDMAs, s.SingleDMAs
	}
	c0, _ := run(0)
	cSkew, _ := run(3)
	if cSkew >= c0 {
		t.Errorf("combining under skew (%d) not below in-order (%d)", cSkew, c0)
	}
}

// injectSkewedBackToBack is injectSkewed without pacing sleeps, so the
// FIFO stays populated and combining has every opportunity.
func injectSkewedBackToBack(r *rig, p *sim.Proc, cells []atm.Cell, lagLink, lag int) {
	perLink := make([][]atm.Cell, 4)
	for i := range cells {
		perLink[i%4] = append(perLink[i%4], cells[i])
	}
	idx := make([]int, 4)
	for round := 0; ; round++ {
		for l := 0; l < 4; l++ {
			turn := round
			if l == lagLink {
				turn = round - lag
			}
			if turn >= 0 && idx[l] < len(perLink[l]) && idx[l] <= turn {
				for !r.b.InjectCell(perLink[l][idx[l]], l) {
					p.Sleep(5 * time.Microsecond)
				}
				idx[l]++
			}
		}
		done := true
		for l := 0; l < 4; l++ {
			if idx[l] < len(perLink[l]) {
				done = false
			}
		}
		if done {
			return
		}
		p.Sleep(time.Microsecond)
	}
}

func TestFreeRingExhaustionDropsPDU(t *testing.T) {
	r := newRig(t, Config{})
	ch := r.b.KernelChannel()
	r.b.BindVCI(5, 0)
	data := pattern(4000, 14)
	r.eng.Go("host", func(p *sim.Proc) {
		// No free buffers supplied at all.
		cells := atm.Segment(5, data, 4, false)
		for i := range cells {
			r.b.InjectCell(cells[i], i%4)
			p.Sleep(700 * time.Nanosecond)
		}
		if _, ok := r.recvPDU(p, ch, 2*time.Millisecond); ok {
			t.Error("PDU delivered without any free buffers")
		}
		// Now supply buffers; a subsequent PDU must get through.
		r.supplyFree(t, p, ch, 4, 16384)
		cells = atm.Segment(5, data, 4, false)
		for i := range cells {
			r.b.InjectCell(cells[i], i%4)
			p.Sleep(700 * time.Nanosecond)
		}
		if got, ok := r.recvPDU(p, ch, 10*time.Millisecond); !ok || !bytes.Equal(got, data) {
			t.Error("recovery PDU not delivered intact")
		}
	})
	r.eng.Run()
	r.eng.Shutdown()
	if r.b.Stats().PDUsDropped != 1 {
		t.Errorf("PDUsDropped = %d, want 1", r.b.Stats().PDUsDropped)
	}
}

func TestADCFrameAuthorization(t *testing.T) {
	r := newRig(t, Config{})
	drops := watchDrops(r.eng)
	// Open channel 1 as an ADC restricted to a specific frame set.
	goodFrames, _ := r.host.Mem.AllocContiguous(4)
	r.b.OpenChannel(1, 1, goodFrames)
	r.b.BindVCI(11, 1)
	ch := r.b.Channel(1)

	badFrame, _ := r.host.Mem.AllocFrame()
	badPA := r.host.Mem.FrameAddr(badFrame)
	goodPA := r.host.Mem.FrameAddr(goodFrames[0])
	data := pattern(100, 15)
	r.host.Mem.Write(goodPA, data)
	r.host.Mem.Write(badPA, data)

	var cells []atm.Cell
	r.b.SetTxSink(func(c atm.Cell, link int) { cells = append(cells, c) })
	r.eng.Go("app", func(p *sim.Proc) {
		// Unauthorized buffer: must trigger a violation and transmit
		// nothing.
		ch.TxRing.TryPush(p, dpm.Host, queue.Desc{Addr: badPA, Len: 100, VCI: 11, Flags: queue.FlagEOP})
		r.b.KickTx()
		p.Sleep(200 * time.Microsecond)
		// Authorized buffer: flows normally.
		ch.TxRing.TryPush(p, dpm.Host, queue.Desc{Addr: goodPA, Len: 100, VCI: 11, Flags: queue.FlagEOP})
		r.b.KickTx()
	})
	r.eng.Run()
	r.eng.Shutdown()
	if r.b.Stats().Violations != 1 {
		t.Errorf("Violations = %d, want 1", r.b.Stats().Violations)
	}
	drops.check(t, r.b.Stats())
	if r.host.Int.Count(VioIRQBase+1) != 1 {
		t.Error("violation interrupt not raised")
	}
	if len(cells) != atm.CellsFor(100) {
		t.Fatalf("cells transmitted = %d, want only the authorized PDU", len(cells))
	}
	_, got, err := atm.Reassemble(cells)
	if err != nil || !bytes.Equal(got, data) {
		t.Error("authorized PDU corrupted")
	}
}

// TestADCViolationBehindInFlightPDU: an unauthorized PDU queued right
// behind an authorized one is discarded in ring order, after the first
// PDU's cells: the tail cannot pass descriptors still being read (it
// used to, and the first PDU's own advance then ran past the head and
// panicked). The PDU behind it flows normally.
func TestADCViolationBehindInFlightPDU(t *testing.T) {
	r := newRig(t, Config{})
	defer r.eng.Shutdown()
	goodFrames, _ := r.host.Mem.AllocContiguous(2)
	r.b.OpenChannel(1, 1, goodFrames)
	ch := r.b.Channel(1)
	badFrame, _ := r.host.Mem.AllocFrame()
	first, second := pattern(2000, 1), pattern(300, 2)
	firstPA, secondPA := r.host.Mem.FrameAddr(goodFrames[0]), r.host.Mem.FrameAddr(goodFrames[1])
	r.host.Mem.Write(firstPA, first)
	r.host.Mem.Write(secondPA, second)

	var cells []atm.Cell
	r.b.SetTxSink(func(c atm.Cell, link int) { cells = append(cells, c) })
	var tail uint32
	r.eng.Go("app", func(p *sim.Proc) {
		for _, d := range []queue.Desc{
			{Addr: firstPA, Len: uint32(len(first)), VCI: 11, Flags: queue.FlagEOP},
			{Addr: r.host.Mem.FrameAddr(badFrame), Len: 100, VCI: 11, Flags: queue.FlagEOP},
			{Addr: secondPA, Len: uint32(len(second)), VCI: 11, Flags: queue.FlagEOP},
		} {
			ch.TxRing.TryPush(p, dpm.Host, d)
		}
		r.b.KickTx()
		p.Sleep(time.Millisecond)
		tail = ch.TxRing.ObserveTail(p, dpm.Host)
	})
	r.eng.Run()
	if st := r.b.Stats(); st.Violations != 1 || st.PDUsTx != 2 {
		t.Fatalf("Violations %d, PDUsTx %d; want 1 and 2", st.Violations, st.PDUsTx)
	}
	if tail != 3 {
		t.Errorf("tail = %d, want 3: every descriptor consumed", tail)
	}
	n := atm.CellsFor(len(first))
	if len(cells) != n+atm.CellsFor(len(second)) {
		t.Fatalf("cells transmitted = %d, want only the two authorized PDUs", len(cells))
	}
	for i, want := range [][]byte{first, second} {
		part := cells[:n]
		if i == 1 {
			part = cells[n:]
		}
		if _, got, err := atm.Reassemble(part); err != nil || !bytes.Equal(got, want) {
			t.Errorf("authorized PDU %d corrupted: %v", i, err)
		}
	}
}

func TestTransmitFullNotifyInterrupt(t *testing.T) {
	// Fill the tx ring beyond capacity, set the notify flag, and verify
	// the board raises the half-empty interrupt exactly once (§2.1.2).
	r := newRig(t, Config{TxRingSlots: 8})
	r.b.BindVCI(7, 0)
	ch := r.b.KernelChannel()
	r.b.SetTxSink(func(atm.Cell, int) {})
	// Each PDU takes the board ~25µs (23 cells) while a push costs ~2µs,
	// so the 8-slot ring fills and the notify protocol engages.
	data := pattern(1000, 16)
	sent := 0
	r.eng.Go("host", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			descs := r.writePDU(t, data, []int{1000}, 7)
			for !ch.TxRing.TryPush(p, dpm.Host, descs[0]) {
				// Ring full: set the notify flag and wait for the IRQ
				// side effect (polled here for test simplicity).
				r.b.DPM.WriteWord(p, dpm.Host, ch.NotifyFlagOff(), 1)
				r.b.KickTx()
				p.Sleep(20 * time.Microsecond)
			}
			sent++
			r.b.KickTx()
		}
	})
	r.eng.Run()
	r.eng.Shutdown()
	if sent != 20 {
		t.Fatalf("sent %d", sent)
	}
	if r.b.Stats().TxIRQs == 0 {
		t.Error("no tx half-empty interrupts despite ring pressure")
	}
	if got := r.b.Stats().PDUsTx; got != 20 {
		t.Errorf("PDUsTx = %d", got)
	}
}

// TestFictitiousGenerator runs a two-message source three times. The
// source builds every message into the same buffer, so a generator
// that read a message after its next pull would deliver the wrong one.
func TestFictitiousGenerator(t *testing.T) {
	r := newRig(t, Config{})
	ch := r.b.KernelChannel()
	r.b.BindVCI(5, 0)
	const msgs, reps = 2, 3
	buf := make([]byte, 2000)
	pulls := 0
	src := func(i int) [][]byte {
		pulls++
		copy(buf, pattern(len(buf), byte(17+i)))
		return [][]byte{buf}
	}
	count := 0
	r.eng.Go("host", func(p *sim.Proc) {
		r.supplyFree(t, p, ch, 32, 4096)
		r.b.StartFictitious(5, msgs, src, 0, reps)
		for count < msgs*reps {
			got, ok := r.recvPDU(p, ch, 50*time.Millisecond)
			if !ok {
				t.Error("fictitious PDU missing")
				return
			}
			if !bytes.Equal(got, pattern(len(buf), byte(17+count%msgs))) {
				t.Errorf("fictitious PDU %d corrupted", count)
			}
			count++
			// Recycle buffers.
			r.supplyFree(t, p, ch, 1, 4096)
		}
	})
	r.eng.Run()
	r.eng.Shutdown()
	if count != msgs*reps || pulls != msgs*reps {
		t.Fatalf("received %d fictitious PDUs from %d pulls, want %d", count, pulls, msgs*reps)
	}
}

func TestUnknownVCIDropped(t *testing.T) {
	r := newRig(t, Config{})
	r.eng.Go("host", func(p *sim.Proc) {
		cells := atm.Segment(99, pattern(100, 18), 4, false)
		for i := range cells {
			r.b.InjectCell(cells[i], i%4)
		}
		p.Sleep(100 * time.Microsecond)
	})
	r.eng.Run()
	r.eng.Shutdown()
	if r.b.Stats().CellsNoVCI == 0 {
		t.Error("cells for unbound VCI not counted as dropped")
	}
	if r.b.Stats().PDUsRx != 0 {
		t.Error("PDU delivered for unbound VCI")
	}
}

func TestEndToEndOverStripedLinks(t *testing.T) {
	// Two hosts, two boards, four links each way: the full data path.
	e := sim.NewEngine(99)
	hA := hostsim.New(e, hostsim.DEC3000_600(), 2048)
	hB := hostsim.New(e, hostsim.DEC3000_600(), 2048)
	bA := New(e, hA, Config{Name: "A"})
	bB := New(e, hB, Config{Name: "B"})
	ab := atm.NewStripeGroup(e, 4, atm.LinkConfig{})
	links := make([]*atm.Link, 4)
	for i := range links {
		links[i] = ab.Link(i)
	}
	bA.AttachTxLinks(links)
	bB.AttachRxLinks(ab)
	bA.BindVCI(5, 0)
	bB.BindVCI(5, 0)

	data := pattern(6000, 19)
	rB := &rig{eng: e, host: hB, b: bB}
	rA := &rig{eng: e, host: hA, b: bA}
	var got []byte
	var ok bool
	e.Go("sender", func(p *sim.Proc) {
		descs := rA.writePDU(t, data, []int{6000}, 5)
		rA.sendPDU(t, p, bA.KernelChannel(), descs)
	})
	e.Go("receiver", func(p *sim.Proc) {
		rB.supplyFree(t, p, bB.KernelChannel(), 8, 16384)
		got, ok = rB.recvPDU(p, bB.KernelChannel(), 50*time.Millisecond)
	})
	e.Run()
	e.Shutdown()
	if !ok {
		t.Fatal("end-to-end PDU not delivered")
	}
	if !bytes.Equal(got, data) {
		t.Error("end-to-end payload mismatch")
	}
}

func TestEndToEndWithSkewedLinks(t *testing.T) {
	e := sim.NewEngine(7)
	hA := hostsim.New(e, hostsim.DEC3000_600(), 2048)
	hB := hostsim.New(e, hostsim.DEC3000_600(), 2048)
	bA := New(e, hA, Config{Name: "A", Strategy: FourAAL5})
	bB := New(e, hB, Config{Name: "B", Strategy: FourAAL5})
	skew := atm.ConstantSkew{PerLink: []time.Duration{0, 9 * time.Microsecond, 3 * time.Microsecond, 14 * time.Microsecond}}
	ab := atm.NewStripeGroup(e, 4, atm.LinkConfig{Skew: skew})
	links := make([]*atm.Link, 4)
	for i := range links {
		links[i] = ab.Link(i)
	}
	bA.AttachTxLinks(links)
	bB.AttachRxLinks(ab)
	bA.BindVCI(5, 0)
	bB.BindVCI(5, 0)

	data := pattern(10000, 20)
	rB := &rig{eng: e, host: hB, b: bB}
	rA := &rig{eng: e, host: hA, b: bA}
	var got []byte
	var ok bool
	e.Go("sender", func(p *sim.Proc) {
		descs := rA.writePDU(t, data, []int{10000}, 5)
		rA.sendPDU(t, p, bA.KernelChannel(), descs)
	})
	e.Go("receiver", func(p *sim.Proc) {
		rB.supplyFree(t, p, bB.KernelChannel(), 8, 16384)
		got, ok = rB.recvPDU(p, bB.KernelChannel(), 100*time.Millisecond)
	})
	e.Run()
	e.Shutdown()
	if !ok {
		t.Fatal("skewed end-to-end PDU not delivered")
	}
	if !bytes.Equal(got, data) {
		t.Error("skewed end-to-end payload mismatch")
	}
}

func TestPriorityDropUnderOverload(t *testing.T) {
	// Two ADCs, one high and one low priority; only the high-priority
	// channel gets free buffers replenished. Low-priority PDUs are
	// dropped by the board without host involvement (§3.1).
	r := newRig(t, Config{})
	r.b.OpenChannel(1, 10, nil)
	r.b.OpenChannel(2, 1, nil)
	r.b.BindVCI(21, 1)
	r.b.BindVCI(22, 2)
	hi := r.b.Channel(1)
	data := pattern(2000, 21)
	hiGot := 0
	r.eng.Go("host", func(p *sim.Proc) {
		r.supplyFree(t, p, hi, 32, 4096)
		// Deliberately no buffers for the low-priority channel.
		for k := 0; k < 5; k++ {
			for _, vci := range []atm.VCI{21, 22} {
				cells := atm.Segment(vci, data, 4, false)
				for i := range cells {
					r.b.InjectCell(cells[i], i%4)
					p.Sleep(700 * time.Nanosecond)
				}
			}
		}
		for {
			got, ok := r.recvPDU(p, hi, 5*time.Millisecond)
			if !ok {
				return
			}
			if bytes.Equal(got, data) {
				hiGot++
			}
		}
	})
	r.eng.Run()
	r.eng.Shutdown()
	if hiGot != 5 {
		t.Errorf("high-priority PDUs delivered = %d, want 5", hiGot)
	}
	if r.b.Stats().PDUsDropped != 5 {
		t.Errorf("PDUsDropped = %d, want 5 (all low-priority)", r.b.Stats().PDUsDropped)
	}
}

func TestStrategyAndModeStrings(t *testing.T) {
	if SingleCell.String() != "single-cell" || DoubleCell.String() != "double-cell" {
		t.Error("DMAMode strings")
	}
	if BoundaryStop.String() != "boundary-stop" || FixedCell.String() != "fixed-cell" || ArbitraryLength.String() != "arbitrary-length" {
		t.Error("TxDMAPolicy strings")
	}
	if FourAAL5.String() != "four-aal5" || SeqNum.String() != "seqnum" || ArrivalOrder.String() != "arrival-order" {
		t.Error("strategy strings")
	}
	if !SeqNum.UsesSeqNumbers() || FourAAL5.UsesSeqNumbers() {
		t.Error("UsesSeqNumbers")
	}
}

// TestBoardRunsNoProc: New starts no process, so a board receiving a
// fictitious-generator stream — processors, DMA controllers and
// generator all busy — makes no proc resume. The host is kept out of
// it: the free ring is stocked before the measured run, the receive
// ring is large enough to hold every descriptor, and interrupts, which
// start a host handler proc, are counted instead of raised.
func TestBoardRunsNoProc(t *testing.T) {
	r := newRig(t, Config{RxDMA: DoubleCell, RecvRingSlots: 64})
	defer r.eng.Shutdown()
	irqs := 0
	r.b.irq = func(int) { irqs++ }
	r.b.BindVCI(9, 0)
	ch := r.b.KernelChannel()
	r.eng.Go("stock", func(p *sim.Proc) { r.supplyFree(t, p, ch, 40, 4096) })
	r.eng.Run()
	resumes := r.eng.Resumes()

	const msgs, size = 8, 8000
	pdu := pattern(size, 1)
	r.b.StartFictitious(9, msgs, func(int) [][]byte { return [][]byte{pdu} }, 0, 1)
	r.eng.Run()
	st := r.b.Stats()
	if st.PDUsRx != msgs || st.CellsRx != msgs*int64(atm.CellsFor(size)) || st.CombinedDMAs == 0 {
		t.Fatalf("the stream was not received whole: %+v", st)
	}
	if irqs == 0 {
		t.Error("no receive interrupt was raised")
	}
	if n := r.eng.Resumes() - resumes; n != 0 {
		t.Errorf("receiving %d PDUs made %d proc resumes, want 0", msgs, n)
	}
}
