package proto

import (
	"encoding/binary"
	"testing"

	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/driver"
	"repro/internal/hostsim"
	"repro/internal/msg"
	"repro/internal/sim"
)

// txStack is one host's IP stack over a board whose cells go to a sink:
// the transmit side in isolation.
type txStack struct {
	eng   *sim.Engine
	h     *hostsim.Host
	drv   *driver.Driver
	ip    *IP
	cells int
}

func newTxStack(t *testing.T) *txStack {
	t.Helper()
	e := sim.NewEngine(1)
	h := hostsim.New(e, hostsim.DEC3000_600(), 4096)
	b := board.New(e, h, board.Config{})
	ts := &txStack{eng: e, h: h}
	b.SetTxSink(func(atm.Cell, int) { ts.cells++ })
	ts.drv = driver.New(e, h, b, driver.Config{Cache: driver.CacheNone})
	ts.ip = NewIP(h, ts.drv, 1, 16384)
	t.Cleanup(func() {
		e.Shutdown()
		h.Release()
	})
	e.Run() // the driver's init proc
	return ts
}

// stepper returns a function that runs body once on a standing proc and
// the engine until it is idle again.
func (ts *txStack) stepper(body func(p *sim.Proc)) func() {
	kick := sim.NewChan[struct{}](ts.eng, 1)
	ts.eng.Go("step", func(p *sim.Proc) {
		for {
			kick.Recv(p)
			body(p)
		}
	})
	return func() {
		kick.TrySend(struct{}{})
		ts.eng.Run()
	}
}

// TestUDPPushAllocatesNothing: once warm, pushing a 16 KB datagram
// through UDP and IP (two fragments) and transmitting it to completion
// allocates nothing, and every header buffer comes back. Each step sends
// two datagrams back to back, so the second is built while the first's
// send records are still in flight.
func TestUDPPushAllocatesNothing(t *testing.T) {
	ts := newTxStack(t)
	s, err := NewUDP(ts.h, ts.ip).Open(UDPOpen{Remote: 2, VCI: 10, SrcPort: 1, DstPort: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := msg.FromBytes(ts.h.Kernel, pattern(16384, 3))
	if err != nil {
		t.Fatal(err)
	}
	step := ts.stepper(func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			if err := s.Push(p, m); err != nil {
				t.Error(err)
			}
		}
		ts.drv.Flush(p)
	})
	step() // warm-up: send records, their messages, pools
	step()
	free, cells := ts.h.Mem.FreePages(), ts.cells
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("%v allocations per two 16 KB datagrams, want 0", allocs)
	}
	if got := ts.h.Mem.FreePages(); got != free {
		t.Errorf("free pages %d after the steps, %d before: header buffers leaked", got, free)
	}
	if got, want := ts.ip.Stats().FragsSent, int64(4*(2+51)); got != want {
		t.Errorf("IP sent %d fragments, want %d", got, want)
	}
	if got, want := ts.cells-cells, 51*cells/2; got != want {
		t.Errorf("board sent %d cells in 51 steps, want %d as in the first two", got, want)
	}
}

// TestRDPSendAndAckAllocateNothing: once warm, an RDP data segment's
// send through IP to completion and the handling of the acknowledgement
// that comes back allocate nothing.
func TestRDPSendAndAckAllocateNothing(t *testing.T) {
	ts := newTxStack(t)
	r := NewRDP(ts.h, ts.ip)
	sess, err := r.Open(RDPOpen{Remote: 2, VCI: 11})
	if err != nil {
		t.Fatal(err)
	}
	s := sess.(*rdpSession)
	data, err := msg.FromBytes(ts.h.Kernel, pattern(4000, 5))
	if err != nil {
		t.Fatal(err)
	}
	// The peer's cumulative acknowledgement, rewritten in kernel memory
	// before each delivery.
	ackVA, err := ts.h.Kernel.Alloc(RDPHeaderSize)
	if err != nil {
		t.Fatal(err)
	}
	ack := msg.New(msg.Fragment{Space: ts.h.Kernel, VA: ackVA, Len: RDPHeaderSize})
	var hdr [RDPHeaderSize]byte
	hdr[0] = rdpAck
	step := ts.stepper(func(p *sim.Proc) {
		if err := s.Push(p, data); err != nil {
			t.Error(err)
		}
		ts.drv.Flush(p)
		binary.BigEndian.PutUint32(hdr[8:], s.nextSeq)
		if err := writeThroughCache(ts.h, ts.h.Kernel, ackVA, hdr[:]); err != nil {
			t.Error(err)
		}
		s.demux(p, ack)
	})
	step() // warm-up
	step()
	free := ts.h.Mem.FreePages()
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("%v allocations per segment and ack, want 0", allocs)
	}
	if got := ts.h.Mem.FreePages(); got != free {
		t.Errorf("free pages %d after the steps, %d before: segment buffers leaked", got, free)
	}
	if s.sendBase != s.nextSeq || s.nextSeq != 2+51 {
		t.Errorf("sendBase %d, nextSeq %d: want every one of %d segments acknowledged", s.sendBase, s.nextSeq, 2+51)
	}
	if st := r.Stats(); st.DataSent != 2+51 || st.Retransmits != 0 {
		t.Errorf("stats %+v, want %d segments sent and no retransmission", st, 2+51)
	}
}
