package atm

import (
	"fmt"
	"math/bits"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
)

// linkFuzzByte is byte j of cell seq's payload as sent.
func linkFuzzByte(seq uint32, j int) byte { return byte(int(seq)*7 + j*13 + 1) }

// linkFuzzDelivery is one cell as the receiver saw it.
type linkFuzzDelivery struct {
	c  Cell
	at sim.Time
}

// FuzzLinkFault is the oracle for the faulted link: random burst loss,
// corruption, duplication and queueing skew over one seeded run. At
// quiesce every cell must be accounted for — Sent + Duplicated =
// Delivered + Lost, and the injector saw exactly the link's cells,
// drops and clones. Deliveries must never go back in time and must keep
// per-link order, each duplicate directly behind its original with the
// same bytes; a corrupted cell differs from what was sent in exactly one
// bit. Both entry points reach the same acceptance step: a second,
// identically configured link fed through SendScheduled at the
// instants the blocking Send was called must return the instants Send
// returned and produce the same deliveries and counters. Faults and
// skew act after serialization — a lost cell still holds its transmit
// slot — so Send must also return at the same instants as on a clean
// link. The cell store must account for every record in all three
// runs: at each delivery the records out are the cells left in the
// train, plus the one a blocked Send holds, so a lost cell's record is
// back and a duplicate is the only clone; and none is out once Run
// drains.
func FuzzLinkFault(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(4), uint8(10), uint8(10), uint16(5000), uint16(300))
	f.Add(int64(7), uint8(0), uint8(0), uint8(255), uint8(255), uint16(0), uint16(64))
	f.Add(int64(3), uint8(255), uint8(15), uint8(0), uint8(40), uint16(20000), uint16(511))
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), uint8(0), uint16(5000), uint16(100))
	f.Fuzz(func(t *testing.T, seed int64, mean, burst, corrupt, dup uint8, skewNS, cells uint16) {
		cfg := &fault.Config{
			CorruptProb: float64(corrupt) / 255,
			DupProb:     float64(dup) / 255,
		}
		if mean > 0 {
			cfg.Loss = fault.BurstLoss(float64(mean)/510, float64(1+burst%16))
		}
		n := 1 + int(cells%512)
		cell := func(i int) Cell {
			c := Cell{Seq: uint32(i), Len: CellPayload}
			for j := range c.Payload {
				c.Payload[j] = linkFuzzByte(c.Seq, j)
			}
			return c
		}
		// run sends the n cells through a fresh link configured by lc,
		// either from a proc with Send (called == nil; the call and
		// return instants are recorded) or with SendScheduled at the
		// given call instants (the returned instants are recorded).
		run := func(lc LinkConfig, called []sim.Time) (l *Link, got []linkFuzzDelivery, calls, rets []sim.Time) {
			e := sim.NewEngine(seed)
			t.Cleanup(e.Shutdown)
			l = NewLink(e, lc)
			store := CellStore(e)
			held := 0 // the record a Send blocked on a full FIFO holds
			var bad error
			l.SetReceiver(func(c Cell, _ int) {
				if out := store.Outstanding(); out != l.count+held && bad == nil {
					bad = fmt.Errorf("at delivery %d: %d cell records out, %d cells in the train, %d held by Send", len(got), out, l.count, held)
				}
				got = append(got, linkFuzzDelivery{c, e.Now()})
			})
			if called == nil {
				e.Go("tx", func(p *sim.Proc) {
					for i := 0; i < n; i++ {
						calls = append(calls, p.Now())
						held = 1
						l.Send(p, cell(i))
						held = 0
						rets = append(rets, p.Now())
					}
				})
			} else {
				for i, at := range called {
					c := sim.TakeNew(store)
					*c = cell(i)
					rets = append(rets, l.SendScheduled(at, c))
				}
				if out := store.Outstanding(); out != l.count {
					t.Fatalf("after SendScheduled: %d cell records out, %d cells in the train", out, l.count)
				}
			}
			e.Run()
			if bad != nil {
				t.Fatal(bad)
			}
			if err := e.CheckPools(); err != nil {
				t.Fatalf("drained: %v", err)
			}
			return l, got, calls, rets
		}
		lc := LinkConfig{
			Skew:      QueueingSkew{Max: time.Duration(skewNS%20000) * time.Nanosecond},
			Fault:     cfg,
			FaultSite: "fz",
		}
		l, got, calls, rets := run(lc, nil)
		ls2, got2, _, rets2 := run(lc, calls)
		_, _, _, clean := run(LinkConfig{}, nil)
		for i := range rets {
			if rets2[i] != rets[i] {
				t.Fatalf("cell %d: SendScheduled(%v) returned %v, Send returned %v", i, calls[i], rets2[i], rets[i])
			}
			if rets[i] != clean[i] {
				t.Fatalf("cell %d: Send returned at %v, at %v on a clean link", i, rets[i], clean[i])
			}
		}
		if len(got2) != len(got) {
			t.Fatalf("SendScheduled delivered %d cells, Send %d", len(got2), len(got))
		}
		for i := range got {
			if got2[i] != got[i] {
				t.Fatalf("delivery %d differs:\nSend:          %+v\nSendScheduled: %+v", i, got[i], got2[i])
			}
		}
		if ls2.Stats() != l.Stats() || ls2.Injector().Stats() != l.Injector().Stats() {
			t.Fatalf("stats differ: Send %+v %+v, SendScheduled %+v %+v",
				l.Stats(), l.Injector().Stats(), ls2.Stats(), ls2.Injector().Stats())
		}

		// A config that can inject nothing builds no injector.
		ls, fs := l.Stats(), l.Injector().Stats()
		if ls.Sent != int64(n) || ls.Sent+ls.Duplicated != ls.Delivered+ls.Lost ||
			l.Injector() != nil && (fs.Cells != ls.Sent || fs.Dropped != ls.Lost || fs.Duplicated != ls.Duplicated) {
			t.Fatalf("cells not conserved over %d sent: link %+v, injector %+v", n, ls, fs)
		}
		if int64(len(got)) != ls.Delivered {
			t.Fatalf("receiver saw %d cells, link delivered %d", len(got), ls.Delivered)
		}

		var dups, corrupted int64
		for i, d := range got {
			if i > 0 {
				prev := got[i-1]
				if d.at < prev.at {
					t.Fatalf("delivery %d at %v before delivery %d at %v", i, d.at, i-1, prev.at)
				}
				switch {
				case d.c.Seq == prev.c.Seq:
					if i > 1 && got[i-2].c.Seq == d.c.Seq {
						t.Fatalf("cell %d delivered three times", d.c.Seq)
					}
					if d.c != prev.c {
						t.Fatalf("duplicate of cell %d differs from its original", d.c.Seq)
					}
					dups++
					continue
				case d.c.Seq < prev.c.Seq:
					t.Fatalf("cell %d delivered after cell %d", d.c.Seq, prev.c.Seq)
				}
			}
			flipped := 0
			for j, b := range d.c.Payload {
				flipped += bits.OnesCount8(b ^ linkFuzzByte(d.c.Seq, j))
			}
			switch flipped {
			case 0:
			case 1:
				corrupted++
			default:
				t.Fatalf("cell %d arrived with %d flipped bits", d.c.Seq, flipped)
			}
		}
		if dups != fs.Duplicated || corrupted != fs.Corrupted {
			t.Fatalf("observed %d duplicates and %d corrupted cells, injector %+v", dups, corrupted, fs)
		}
	})
}
