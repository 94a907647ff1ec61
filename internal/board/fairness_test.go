package board

import (
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/dpm"
	"repro/internal/queue"
	"repro/internal/sim"
)

// TestRxFIFOQuotaIsolatesChannels floods one channel's VCI far past its
// quota and then offers another channel's cells: the flood must be
// capped at the quota while the second tenant's cells all find FIFO
// space the flood would otherwise have consumed.
func TestRxFIFOQuotaIsolatesChannels(t *testing.T) {
	r := newRig(t, Config{RxFIFOCells: 32, RxFIFOQuota: 4})
	drops := watchDrops(r.eng)
	r.b.OpenChannel(1, 1, nil)
	r.b.OpenChannel(2, 1, nil)
	r.b.BindVCI(10, 1)
	r.b.BindVCI(11, 2)

	flood := atm.Cell{VCI: 10, Len: atm.CellPayload}
	for i := 0; i < 20; i++ {
		r.b.receiveCell(storeCell(r.b, flood), i%4)
	}
	if got := r.b.Channel(1).QuotaDropped(); got != 16 {
		t.Fatalf("flood channel quota drops = %d, want 16", got)
	}
	if r.b.stats.CellsDroppedFIFO != 0 {
		t.Fatalf("FIFO overflow drops = %d, want 0 (quota must act first)", r.b.stats.CellsDroppedFIFO)
	}
	// The innocent tenant's cells fit: 4 in use out of 32.
	for i := 0; i < 8; i++ {
		r.b.receiveCell(storeCell(r.b, atm.Cell{VCI: 11, Len: atm.CellPayload}), i%4)
	}
	if got := r.b.Channel(2).QuotaDropped(); got != 4 {
		t.Fatalf("innocent channel quota drops = %d, want 4 (its own quota)", got)
	}
	if r.b.stats.CellsQuotaDropped != 20 {
		t.Fatalf("total quota drops = %d, want 20", r.b.stats.CellsQuotaDropped)
	}
	// Draining the FIFO releases the charges: after the run the same
	// VCIs can enter again.
	r.eng.Run()
	if r.b.Channel(1).fifoCells != 0 || r.b.Channel(2).fifoCells != 0 {
		t.Fatalf("FIFO charges not released: %d/%d",
			r.b.Channel(1).fifoCells, r.b.Channel(2).fifoCells)
	}
	r.b.receiveCell(storeCell(r.b, flood), 0)
	if r.b.Channel(1).QuotaDropped() != 16 {
		t.Fatal("charge release: cell within quota was dropped")
	}
	drops.check(t, r.b.Stats())
	r.eng.Run()
	if err := r.eng.CheckPools(); err != nil {
		t.Errorf("quota-dropped cells' records: %v", err)
	}
}

// TestQuotaOffMatchesSeed pins that a zero quota leaves the FIFO entry
// path untouched: overflow drops come only from FIFO capacity.
func TestQuotaOffMatchesSeed(t *testing.T) {
	r := newRig(t, Config{RxFIFOCells: 8})
	drops := watchDrops(r.eng)
	r.b.BindVCI(10, 0)
	for i := 0; i < 12; i++ {
		r.b.receiveCell(storeCell(r.b, atm.Cell{VCI: 10, Len: atm.CellPayload}), 0)
	}
	if r.b.stats.CellsQuotaDropped != 0 {
		t.Fatal("quota drops counted with quota disabled")
	}
	if r.b.stats.CellsDroppedFIFO != 4 {
		t.Fatalf("FIFO drops = %d, want 4", r.b.stats.CellsDroppedFIFO)
	}
	drops.check(t, r.b.Stats())
	r.eng.Run()
	if err := r.eng.CheckPools(); err != nil {
		t.Errorf("overflowed cells' records: %v", err)
	}
}

// drainRecvRing pops everything from a channel's receive ring,
// verifying the driver-facing PDU framing invariant: descriptors form
// whole PDUs, each terminated by EOP, with FlagErr markers allowed only
// as partial-delivery terminators. Returns complete PDU count.
func drainRecvRing(t *testing.T, p *sim.Proc, ch *Channel) (pdus int) {
	t.Helper()
	partial := 0
	for {
		d, ok := ch.RecvRing.TryPop(p, dpm.Host)
		if !ok {
			break
		}
		if d.Flags&queue.FlagErr != 0 {
			if partial == 0 {
				t.Fatal("abort marker with no partial delivery")
			}
			partial = 0
			continue
		}
		partial++
		if d.Flags&queue.FlagEOP != 0 {
			pdus++
			partial = 0
		}
	}
	if partial != 0 {
		t.Fatalf("drained ring ends mid-PDU (%d dangling descriptors)", partial)
	}
	return pdus
}

// TestRecvDropGraceIsolatesStalledReceiver runs a never-reaping
// receiver (channel 1) next to a live one (channel 2) on the shared
// receive DMA engine. With RecvDropGrace the stalled channel's PDUs are
// dropped at its full ring and the live channel's deliveries all
// complete; without it the engine would spin on channel 1 forever.
func TestRecvDropGraceIsolatesStalledReceiver(t *testing.T) {
	// A small receive ring so the never-reaping channel fills it while
	// free buffers remain (the board then recycles dropped buffers
	// through the stash, keeping the pressure on).
	r := newRig(t, Config{RxFIFOCells: 512, RecvRingSlots: 16, RecvDropGrace: 4 * time.Microsecond})
	drops := watchDrops(r.eng)
	r.b.OpenChannel(1, 1, nil)
	r.b.OpenChannel(2, 1, nil)
	r.b.BindVCI(10, 1)
	r.b.BindVCI(11, 2)

	const pduBytes = 400
	const hogPDUs, livePDUs = 40, 20
	data := pattern(pduBytes, 9)

	feed := func(p *sim.Proc, vci atm.VCI, n int) {
		for i := 0; i < n; i++ {
			cells := atm.Segment(vci, data, 4, false)
			for j, c := range cells {
				r.b.InjectCell(c, j%4)
			}
			p.Sleep(50 * time.Microsecond)
		}
	}
	var delivered int
	r.eng.Go("setup", func(p *sim.Proc) {
		// Generous buffers for the hog (so its recv ring, not its free
		// ring, is the bottleneck); a small recycled set for the live one.
		r.supplyFree(t, p, r.b.Channel(1), 40, 512)
		r.supplyFree(t, p, r.b.Channel(2), 8, 512)
		r.eng.Go("hog-feed", func(p *sim.Proc) { feed(p, 10, hogPDUs) })
		r.eng.Go("live-feed", func(p *sim.Proc) { feed(p, 11, livePDUs) })
		// Live receiver: pop ch2's ring continuously, recycling buffers.
		r.eng.Go("live-recv", func(p *sim.Proc) {
			ch := r.b.Channel(2)
			for delivered < livePDUs {
				d, ok := ch.RecvRing.TryPop(p, dpm.Host)
				if !ok {
					p.Sleep(5 * time.Microsecond)
					continue
				}
				if d.Flags&queue.FlagEOP != 0 {
					delivered++
				}
				// Recycle the buffer.
				ch.FreeRing.TryPush(p, dpm.Host, queue.Desc{Addr: d.Addr, Len: 512})
				r.b.KickFree()
			}
		})
	})
	r.eng.RunUntil(r.eng.Now().Add(100 * time.Millisecond))

	if delivered != livePDUs {
		t.Fatalf("live tenant delivered %d/%d PDUs behind a stalled receiver", delivered, livePDUs)
	}
	if r.b.stats.RecvRingDropped == 0 {
		t.Fatal("stalled channel dropped nothing; the hog never filled its ring?")
	}
	if r.b.Channel(2).RingDropped() != 0 {
		t.Fatalf("live channel lost %d descriptors", r.b.Channel(2).RingDropped())
	}
	// The stalled ring, drained now, must still hold only whole PDUs.
	r.eng.Go("drain", func(p *sim.Proc) {
		drainRecvRing(t, p, r.b.Channel(1))
	})
	r.eng.Run()
	drops.check(t, r.b.Stats())
}

// TestTxDRRByteFairness backlogs two equal-priority channels — one
// shipping short padded PDUs, one shipping full-cell PDUs — and checks
// that DRR arbitration equalizes goodput bytes, where the seed's
// cell-slot round robin lets the padded tenant fall behind.
func TestTxDRRByteFairness(t *testing.T) {
	run := func(quantum int) (shortBytes, longBytes int) {
		// A slowed link so the descriptor feeders (who pay dual-port
		// memory costs per push) stay ahead of the drain: fairness is
		// only observable while both channels are backlogged.
		r := newRig(t, Config{TxDRRQuantum: quantum, CellOverheadTx: 5 * time.Microsecond})
		r.b.OpenChannel(1, 1, nil)
		r.b.OpenChannel(2, 1, nil)
		r.b.BindVCI(10, 1)
		r.b.BindVCI(11, 2)
		const shortLen, longLen = 50, 2200
		// One buffer each, reused for every PDU: the feeders must
		// outpace the link so arbitration, not feeding, sets the shares.
		shortDescs := r.writePDU(t, pattern(shortLen, 1), []int{shortLen}, 10)
		longDescs := r.writePDU(t, pattern(longLen, 2), []int{longLen}, 11)
		var shortDone, longDone int
		r.b.SetTxSink(func(c atm.Cell, link int) {
			if !c.Last {
				return
			}
			if c.VCI == 10 {
				shortDone++
			} else {
				longDone++
			}
		})
		r.eng.Go("feed-short", func(p *sim.Proc) {
			for i := 0; i < 1500; i++ {
				r.sendPDU(t, p, r.b.Channel(1), shortDescs)
			}
		})
		r.eng.Go("feed-long", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				r.sendPDU(t, p, r.b.Channel(2), longDescs)
			}
		})
		r.eng.RunUntil(r.eng.Now().Add(10 * time.Millisecond))
		return shortDone * shortLen, longDone * longLen
	}

	sb, lb := run(4 * atm.CellPayload)
	if sb == 0 || lb == 0 {
		t.Fatalf("no progress: short=%dB long=%dB", sb, lb)
	}
	ratio := float64(sb) / float64(lb)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("DRR byte ratio %.2f (short=%dB long=%dB), want ~1.0", ratio, sb, lb)
	}

	// Seed arbitration: cell-slot fairness, so the short-PDU tenant's
	// byte share sits well below parity — the gap DRR exists to close.
	sb0, lb0 := run(0)
	ratio0 := float64(sb0) / float64(lb0)
	if ratio0 > 0.75 {
		t.Fatalf("seed ratio %.2f unexpectedly fair; DRR test is vacuous", ratio0)
	}
}
