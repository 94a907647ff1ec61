package board

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/dpm"
	"repro/internal/hostsim"
	"repro/internal/queue"
	"repro/internal/sim"
)

// TestReasmTimeoutReclaimsLostEOM is the regression test for the
// stranded-reassembly leak: a PDU whose final (Last/EOM) cell is lost
// used to hold its receive buffers and reassembly state forever. With
// ReasmTimeout set, the board must abort the reassembly, send an abort
// marker behind the interior buffers it already streamed to the host,
// reclaim every buffer, and keep serving clean PDUs afterwards.
func TestReasmTimeoutReclaimsLostEOM(t *testing.T) {
	const timeout = 2 * time.Millisecond
	r := newRig(t, Config{ReasmTimeout: timeout})
	drops := watchDrops(r.eng)
	ch := r.b.KernelChannel()
	r.b.BindVCI(5, 0)
	data := pattern(5000, 7)
	data2 := pattern(3000, 8)
	var descs []queue.Desc
	var got2 []byte
	var ok2 bool
	r.eng.Go("host", func(p *sim.Proc) {
		// 2048-byte buffers force interior buffers to stream to the host
		// before the PDU completes — the case that needs the marker.
		r.supplyFree(t, p, ch, 8, 2048)
		cells := atm.Segment(5, data, 4, false)
		for i := range cells[:len(cells)-1] { // the Last/EOM cell is lost
			r.b.InjectCell(cells[i], i%4)
			p.Sleep(700 * time.Nanosecond)
		}
		// Collect pushes until the abort marker arrives.
		deadline := p.Now().Add(10 * timeout)
		for p.Now() < deadline {
			d, popped := ch.RecvRing.TryPop(p, dpm.Host)
			if !popped {
				p.Sleep(5 * time.Microsecond)
				continue
			}
			descs = append(descs, d)
			if d.Flags&queue.FlagErr != 0 {
				break
			}
		}
		// Degradation must be graceful: a clean PDU flows end to end
		// right after the abort, reusing the reclaimed buffers.
		cells2 := atm.Segment(5, data2, 4, false)
		for i := range cells2 {
			r.b.InjectCell(cells2[i], i%4)
			p.Sleep(700 * time.Nanosecond)
		}
		got2, ok2 = r.recvPDU(p, ch, 20*time.Millisecond)
	})
	r.eng.Run()
	r.eng.Shutdown()

	if len(descs) == 0 || descs[len(descs)-1].Flags&queue.FlagErr == 0 {
		t.Fatalf("no abort marker delivered; got %d descriptors", len(descs))
	}
	for _, d := range descs[:len(descs)-1] {
		if d.Flags&queue.FlagErr != 0 || d.Flags&queue.FlagEOP != 0 {
			t.Fatalf("unexpected flags before the marker: %+v", d)
		}
	}
	st := r.b.Stats()
	if st.PDUsTimedOut != 1 {
		t.Errorf("PDUsTimedOut = %d, want 1", st.PDUsTimedOut)
	}
	if st.RxAbortMarkers != 1 {
		t.Errorf("RxAbortMarkers = %d, want 1", st.RxAbortMarkers)
	}
	if st.PDUsDropped != 0 {
		t.Errorf("PDUsDropped = %d, want 0 (timeouts are counted separately)", st.PDUsDropped)
	}
	if n := r.b.OpenReassemblies(); n != 0 {
		t.Errorf("OpenReassemblies = %d, want 0", n)
	}
	if n := r.b.HeldReasmBufs(); n != 0 {
		t.Errorf("HeldReasmBufs = %d, want 0", n)
	}
	if !ok2 {
		t.Fatal("clean PDU after the abort was not delivered")
	}
	if !bytes.Equal(got2, data2) {
		t.Error("clean PDU after the abort is corrupted")
	}
	if st.PDUsRx != 1 {
		t.Errorf("PDUsRx = %d, want 1", st.PDUsRx)
	}
	drops.check(t, st)
}

// TestReasmTimeoutWithoutPushesIsSilent covers the easy half: when
// nothing streamed to the host yet, a timed-out reassembly is reclaimed
// with no marker — the host never learns the PDU existed.
func TestReasmTimeoutWithoutPushesIsSilent(t *testing.T) {
	const timeout = 2 * time.Millisecond
	r := newRig(t, Config{ReasmTimeout: timeout})
	ch := r.b.KernelChannel()
	r.b.BindVCI(5, 0)
	data := pattern(5000, 9)
	r.eng.Go("host", func(p *sim.Proc) {
		// One 16 KB buffer holds the whole PDU, so nothing is pushed
		// before completion.
		r.supplyFree(t, p, ch, 8, 16384)
		cells := atm.Segment(5, data, 4, false)
		for i := range cells[:len(cells)-1] {
			r.b.InjectCell(cells[i], i%4)
			p.Sleep(700 * time.Nanosecond)
		}
		p.Sleep(10 * timeout)
		if d, popped := ch.RecvRing.TryPop(p, dpm.Host); popped {
			t.Errorf("unexpected descriptor delivered: %+v", d)
		}
	})
	r.eng.Run()
	r.eng.Shutdown()
	st := r.b.Stats()
	if st.PDUsTimedOut != 1 || st.RxAbortMarkers != 0 {
		t.Errorf("PDUsTimedOut = %d RxAbortMarkers = %d, want 1 and 0", st.PDUsTimedOut, st.RxAbortMarkers)
	}
	if r.b.OpenReassemblies() != 0 || r.b.HeldReasmBufs() != 0 {
		t.Errorf("reassembly state leaked: open=%d held=%d", r.b.OpenReassemblies(), r.b.HeldReasmBufs())
	}
}

// TestDuplicateCellRejection injects each cell of a SeqNum-strategy PDU
// twice; with RejectDuplicates the replays are discarded, the PDU
// delivers intact, and the per-cause counter records every replay.
func TestDuplicateCellRejection(t *testing.T) {
	r := newRig(t, Config{Strategy: SeqNum, RejectDuplicates: true})
	drops := watchDrops(r.eng)
	ch := r.b.KernelChannel()
	r.b.BindVCI(5, 0)
	data := pattern(3000, 10)
	var got []byte
	var ok bool
	r.eng.Go("host", func(p *sim.Proc) {
		r.supplyFree(t, p, ch, 8, 16384)
		cells := atm.Segment(5, data, 4, true)
		for i := range cells {
			r.b.InjectCell(cells[i], i%4)
			p.Sleep(700 * time.Nanosecond)
			if !cells[i].Last {
				// Replay every cell but the Last: a replay arriving after
				// the PDU completed opens a fresh reassembly and is
				// indistinguishable from a new PDU (errorDetected or the
				// timeout handles it, not the duplicate filter).
				r.b.InjectCell(cells[i], i%4)
				p.Sleep(700 * time.Nanosecond)
			}
		}
		got, ok = r.recvPDU(p, ch, 20*time.Millisecond)
	})
	r.eng.Run()
	r.eng.Shutdown()
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("PDU did not survive duplicated cells")
	}
	st := r.b.Stats()
	if want := int64(len(atm.Segment(5, data, 4, true)) - 1); st.CellsDuplicate != want {
		t.Errorf("CellsDuplicate = %d, want %d", st.CellsDuplicate, want)
	}
	if st.PDUsRx != 1 || st.PDUsDropped != 0 {
		t.Errorf("delivery stats off: %+v", st)
	}
	drops.check(t, st)
}

// TestCorruptCellDroppedByCRC flips one payload bit in an interior cell;
// with CheckCRC the board's recomputed AAL5 CRC disagrees with the
// trailer and the PDU is discarded before reaching the host.
func TestCorruptCellDroppedByCRC(t *testing.T) {
	r := newRig(t, Config{CheckCRC: true})
	drops := watchDrops(r.eng)
	ch := r.b.KernelChannel()
	r.b.BindVCI(5, 0)
	data := pattern(3000, 11)
	r.eng.Go("host", func(p *sim.Proc) {
		r.supplyFree(t, p, ch, 8, 16384)
		cells := atm.Segment(5, data, 4, false)
		cells[3].Payload[17] ^= 0x40 // one flipped bit, framing intact
		for i := range cells {
			r.b.InjectCell(cells[i], i%4)
			p.Sleep(700 * time.Nanosecond)
		}
		if _, ok := r.recvPDU(p, ch, 10*time.Millisecond); ok {
			t.Error("corrupted PDU was delivered")
		}
	})
	r.eng.Run()
	r.eng.Shutdown()
	st := r.b.Stats()
	if st.PDUsCRCDropped != 1 {
		t.Errorf("PDUsCRCDropped = %d, want 1", st.PDUsCRCDropped)
	}
	if st.PDUsRx != 0 {
		t.Errorf("PDUsRx = %d, want 0", st.PDUsRx)
	}
	if r.b.OpenReassemblies() != 0 || r.b.HeldReasmBufs() != 0 {
		t.Errorf("reassembly state leaked: open=%d held=%d", r.b.OpenReassemblies(), r.b.HeldReasmBufs())
	}
	drops.check(t, st)
}

// TestCleanPDUPassesCRC is the control for the CRC path: with CheckCRC
// on, an uncorrupted PDU still delivers byte-exact.
func TestCleanPDUPassesCRC(t *testing.T) {
	r := newRig(t, Config{CheckCRC: true})
	ch := r.b.KernelChannel()
	r.b.BindVCI(5, 0)
	data := pattern(5000, 12)
	var got []byte
	var ok bool
	r.eng.Go("host", func(p *sim.Proc) {
		r.supplyFree(t, p, ch, 8, 2048) // multi-buffer: exercises the shadow across pushes
		cells := atm.Segment(5, data, 4, false)
		for i := range cells {
			r.b.InjectCell(cells[i], i%4)
			p.Sleep(700 * time.Nanosecond)
		}
		got, ok = r.recvPDU(p, ch, 20*time.Millisecond)
	})
	r.eng.Run()
	r.eng.Shutdown()
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("clean PDU failed under CheckCRC")
	}
	if st := r.b.Stats(); st.PDUsCRCDropped != 0 || st.PDUsRx != 1 {
		t.Errorf("stats off: %+v", st)
	}
}

// TestReasmTimeoutSkipsHeldReassembly: a reassembly the receive
// processor is handling a cell of never expires. With a 1 ns timeout
// the sweep fires while the processor reads the free ring for the
// buffer of a one-cell PDU; it must leave the state alone and retry, so
// the state is neither aborted nor put back in the pool for another VCI
// while the processor still writes it, and every record is back in its
// pool at the drain.
func TestReasmTimeoutSkipsHeldReassembly(t *testing.T) {
	r := newRig(t, Config{ReasmTimeout: time.Nanosecond})
	defer r.eng.Shutdown()
	ch := r.b.KernelChannel()
	r.b.BindVCI(5, 0)
	data := pattern(atm.CellPayload-atm.TrailerSize, 3)
	var got []byte
	var ok bool
	r.eng.Go("host", func(p *sim.Proc) {
		r.supplyFree(t, p, ch, 4, 2048)
		r.b.InjectCell(atm.Segment(5, data, 1, false)[0], 0)
		got, ok = r.recvPDU(p, ch, time.Millisecond)
	})
	r.eng.Run()
	if st := r.b.Stats(); st.PDUsTimedOut != 0 || st.PDUsRx != 1 {
		t.Errorf("PDUsTimedOut = %d PDUsRx = %d, want 0 and 1", st.PDUsTimedOut, st.PDUsRx)
	}
	if !ok || !bytes.Equal(got, data) {
		t.Errorf("delivered %v, intact %v", ok, bytes.Equal(got, data))
	}
	if err := r.b.CheckPools(); err != nil {
		t.Error(err)
	}
}

// sweepAlways runs the reassembly timeout sweep (Board.sweepReasm) at
// every nanosecond until nothing else is left to run. Each run comes
// after the events scheduled before the previous nanosecond and before
// those scheduled since, so it also lands between an event that frees
// room in a queue and the wakeup of a processor waiting for that room.
// After each sweep it checks that the receive processor is not in the
// middle of handling a reassembly the sweep retired. It returns the
// processor states in which a sweep found the processor's reassembly
// open and past its timeout; for a wait on the DMA command queue it
// counts only the sweeps that found room there.
func sweepAlways(t *testing.T, b *Board) map[uint8]bool {
	t.Helper()
	seen := map[uint8]bool{}
	x := &b.rxCPU
	handling := func() bool {
		switch x.pc {
		case rxpCombine, rxpPlace, rxpEOP, rxpAbort:
			return true
		case rxpSend:
			// A cell's command waits to be queued; the reassembly is
			// still open unless that cell completed the PDU.
			return x.ch.reasm[x.rs.vci] == x.rs
		}
		return false
	}
	var tick func(any)
	tick = func(any) {
		if rs := x.rs; rs != nil && x.ch.reasm[rs.vci] == rs && rs.lastArrival.Add(b.cfg.ReasmTimeout) <= b.eng.Now() &&
			(x.pc != rxpAbort && x.pc != rxpSend || !b.rxCmds.Full()) {
			seen[x.pc] = true
		}
		held := handling()
		b.sweepReasm()
		if held && x.ch.reasm[x.rs.vci] != x.rs {
			t.Fatalf("at %v the sweep retired the reassembly the receive processor is handling (state %d)", b.eng.Now(), x.pc)
		}
		if b.eng.Pending() > 0 {
			b.eng.AfterCall(1, tick, nil)
		}
	}
	b.eng.AfterCall(1, tick, nil)
	return seen
}

// checkSwept checks what a run under sweepAlways must leave behind:
// every reassembly retired once, with its buffers and records.
func checkSwept(t *testing.T, r *rig, drops dropOracle) {
	t.Helper()
	if n, held := r.b.OpenReassemblies(), r.b.HeldReasmBufs(); n != 0 || held != 0 {
		t.Errorf("at the drain: %d reassemblies open holding %d buffers, want none", n, held)
	}
	if err := r.b.CheckPools(); err != nil {
		t.Error(err)
	}
	drops.check(t, r.b.Stats())
}

// A sweep that runs while the processor waits out its look at a second
// cell header, to combine the two cells into one double-cell DMA, must
// leave the reassembly alone: the processor goes on to ingest the
// second cell into it.
func TestReasmSweepSkipsCombiningCell(t *testing.T) {
	r := newRig(t, Config{RxDMA: DoubleCell, ReasmTimeout: time.Nanosecond})
	defer r.eng.Shutdown()
	drops := watchDrops(r.eng)
	ch := r.b.KernelChannel()
	r.b.BindVCI(5, 0)
	r.eng.Go("host", func(p *sim.Proc) {
		r.supplyFree(t, p, ch, 8, 2048)
		for i, c := range atm.Segment(5, pattern(600, 4), 4, false) {
			r.b.InjectCell(c, i%4)
		}
	})
	seen := sweepAlways(t, r.b)
	r.eng.Run()
	if !seen[rxpCombine] {
		t.Error("no sweep ran while the processor combined two cells")
	}
	if r.b.Stats().CombinedDMAs == 0 {
		t.Error("no double-cell DMA")
	}
	checkSwept(t, r, drops)
}

// A sweep that runs while the processor reads the free ring for the
// buffer a completed PDU's EOP descriptor needs must leave the
// reassembly alone. An empty PDU's one cell carries no data, so the
// buffer is read only then.
func TestReasmSweepSkipsEOPBuffer(t *testing.T) {
	r := newRig(t, Config{ReasmTimeout: time.Nanosecond})
	defer r.eng.Shutdown()
	drops := watchDrops(r.eng)
	ch := r.b.KernelChannel()
	r.b.BindVCI(5, 0)
	var got []byte
	var ok bool
	r.eng.Go("host", func(p *sim.Proc) {
		r.supplyFree(t, p, ch, 4, 2048)
		r.b.InjectCell(atm.Segment(5, nil, 1, false)[0], 0)
		got, ok = r.recvPDU(p, ch, time.Millisecond)
	})
	seen := sweepAlways(t, r.b)
	r.eng.Run()
	if !seen[rxpEOP] {
		t.Error("no sweep ran while the processor read the EOP buffer")
	}
	if st := r.b.Stats(); !ok || len(got) != 0 || st.PDUsRx != 1 || st.PDUsTimedOut != 0 {
		t.Errorf("delivered %v (%d bytes), PDUsRx = %d, PDUsTimedOut = %d; want the empty PDU, 1, 0", ok, len(got), st.PDUsRx, st.PDUsTimedOut)
	}
	checkSwept(t, r, drops)
}

// A sweep that runs while the processor waits for room in the DMA
// command queue must leave the reassembly alone, also at the instant
// room appears and before the processor is woken to take it: the
// processor queues its command and, for an abandoned PDU's abort
// marker, retires the reassembly itself. The CPU holds the DEC
// 5000/200's serialized TURBOchannel, so the receive DMA controller
// stalls on its first command while the processor fills the queue
// behind it; a lost cell makes the PDU's last cell abandon it, with
// buffers pushed. With 788 bytes the queue is full just as the
// processor queues the abort marker; with 900, while it queues a
// cell's command before that.
func TestReasmSweepSkipsQueuedAbort(t *testing.T) {
	for _, tc := range []struct {
		size  int
		state uint8
	}{{788, rxpAbort}, {900, rxpSend}} {
		t.Run(fmt.Sprint(tc.size), func(t *testing.T) {
			e := sim.NewEngine(42)
			defer e.Shutdown()
			h := hostsim.New(e, hostsim.DEC5000_200(), 2048)
			r := &rig{eng: e, host: h, b: New(e, h, Config{ReasmTimeout: time.Microsecond})}
			drops := watchDrops(e)
			ch := r.b.KernelChannel()
			r.b.BindVCI(5, 0)
			r.eng.Go("host", func(p *sim.Proc) {
				r.supplyFree(t, p, ch, 16, 2*atm.CellPayload)
				for i, c := range atm.Segment(5, pattern(tc.size, 5), 4, false) {
					if i != 5 {
						r.b.InjectCell(c, i%4)
					}
				}
				h.Bus.CPUOccupy(50 * time.Microsecond).Do(p)
			})
			seen := sweepAlways(t, r.b)
			r.eng.Run()
			if !seen[tc.state] {
				t.Errorf("no sweep ran while the processor waited in state %d to queue a command and the queue had room", tc.state)
			}
			if st := r.b.Stats(); st.RxAbortMarkers != 1 || st.PDUsDropped != 1 || st.PDUsTimedOut != 0 {
				t.Errorf("RxAbortMarkers = %d, PDUsDropped = %d, PDUsTimedOut = %d; want 1, 1, 0", st.RxAbortMarkers, st.PDUsDropped, st.PDUsTimedOut)
			}
			checkSwept(t, r, drops)
		})
	}
}
