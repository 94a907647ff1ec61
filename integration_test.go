package repro

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/hostsim"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xkernel"
)

// TestConfigurationMatrixSmoke drives a verified end-to-end transfer
// through every combination of machine profile, receive DMA mode,
// reassembly strategy, cache policy, and checksum setting — the whole
// configuration space a user of this library can select.
func TestConfigurationMatrixSmoke(t *testing.T) {
	type combo struct {
		prof     func() hostsim.Profile
		dma      board.DMAMode
		strategy board.ReassemblyStrategy
		cache    driver.CachePolicy
		checksum bool
	}
	var combos []combo
	for _, prof := range []func() hostsim.Profile{hostsim.DEC5000_200, hostsim.DEC3000_600} {
		for _, dma := range []board.DMAMode{board.SingleCell, board.DoubleCell} {
			for _, strat := range []board.ReassemblyStrategy{board.FourAAL5, board.SeqNum} {
				for _, cache := range []driver.CachePolicy{driver.CacheLazy, driver.CacheEager, driver.CacheNone} {
					for _, cs := range []bool{false, true} {
						combos = append(combos, combo{prof, dma, strat, cache, cs})
					}
				}
			}
		}
	}
	data := workload.Payload(20_000, 3)
	for i, c := range combos {
		prof := c.prof()
		tb := core.NewTestbed(core.Options{
			Profile:  prof,
			Board:    board.Config{RxDMA: c.dma, Strategy: c.strategy},
			Driver:   driver.Config{Cache: c.cache},
			Checksum: c.checksum,
			Seed:     int64(i + 1),
		})
		tx, rx, err := openUDPPair(tb, 10, c.checksum)
		if err != nil {
			t.Fatalf("combo %d: %v", i, err)
		}
		var got []byte
		rx.SetHandler(func(p *sim.Proc, m *msg.Message) { got, _ = m.Bytes() })
		tb.Eng.Go("send", func(p *sim.Proc) {
			m, err := msg.FromBytes(tb.A.Host.Kernel, data)
			if err != nil {
				t.Error(err)
				return
			}
			if err := tx.Push(p, m); err != nil {
				t.Error(err)
			}
			tb.A.Drv.Flush(p)
		})
		tb.Eng.RunUntil(tb.Eng.Now().Add(100 * time.Millisecond))
		if !bytes.Equal(got, data) {
			t.Errorf("combo %d (%s dma=%v strat=%v cache=%v cs=%v): message corrupted or lost (%d bytes)",
				i, prof.Name, c.dma, c.strategy, c.cache, c.checksum, len(got))
		}
		tb.Shutdown()
	}
	t.Logf("verified %d configuration combinations", len(combos))
}

func openUDPPair(tb *core.Testbed, vci atm.VCI, checksum bool) (tx, rx xkernel.Session, err error) {
	tx, err = tb.A.UDP.Open(proto.UDPOpen{Remote: 2, VCI: vci, SrcPort: 1, DstPort: 2, Checksum: checksum})
	if err != nil {
		return nil, nil, err
	}
	rx, err = tb.B.UDP.Open(proto.UDPOpen{Remote: 1, VCI: vci, SrcPort: 2, DstPort: 1, Checksum: checksum})
	return tx, rx, err
}

// TestFullRunDeterminism re-runs a nontrivial mixed workload twice and
// demands identical virtual end times and statistics — the property
// that makes every number in EXPERIMENTS.md exactly regenerable.
func TestFullRunDeterminism(t *testing.T) {
	run := func() (sim.Time, int64, int64) {
		opt := core.Options{
			Profile:  hostsim.DEC5000_200(),
			Driver:   driver.Config{Cache: driver.CacheLazy},
			Checksum: true,
			Link: atm.LinkConfig{
				Skew:  atm.QueueingSkew{Max: 5 * time.Microsecond},
				Fault: &fault.Config{Loss: fault.Bernoulli{P: 0.002}},
			},
			Board: board.Config{Strategy: board.FourAAL5, RxDMA: board.DoubleCell},
			Seed:  1234,
		}
		tb := core.NewTestbed(opt)
		defer tb.Shutdown()
		tx, rx, err := openUDPPair(tb, 10, true)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		rx.SetHandler(func(p *sim.Proc, m *msg.Message) { n++ })
		tb.Eng.Go("send", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				m, _ := msg.FromBytes(tb.A.Host.Kernel, workload.Payload(6000, byte(i)))
				tx.Push(p, m)
				tb.A.Drv.Flush(p)
			}
		})
		end := tb.Eng.RunUntil(tb.Eng.Now().Add(50 * time.Millisecond))
		return end, int64(n), tb.B.Board.Stats().CellsRx
	}
	e1, n1, c1 := run()
	e2, n2, c2 := run()
	if e1 != e2 || n1 != n2 || c1 != c2 {
		t.Errorf("non-deterministic: (%v,%d,%d) vs (%v,%d,%d)", e1, n1, c1, e2, n2, c2)
	}
}

// TestBidirectionalSimultaneousTraffic runs full-rate traffic both ways
// at once — each host transmitting and receiving simultaneously, the
// case where one host's transmit DMA, receive DMA, and CPU all contend.
func TestBidirectionalSimultaneousTraffic(t *testing.T) {
	tb := core.NewTestbed(core.Options{
		Profile: hostsim.DEC3000_600(),
		Driver:  driver.Config{Cache: driver.CacheNone},
	})
	defer tb.Shutdown()
	ab, baRx, err := openUDPPair(tb, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	// Reverse direction on its own VCI.
	ba, err := tb.B.UDP.Open(proto.UDPOpen{Remote: 1, VCI: 11, SrcPort: 3, DstPort: 4})
	if err != nil {
		t.Fatal(err)
	}
	abRx, err := tb.A.UDP.Open(proto.UDPOpen{Remote: 2, VCI: 11, SrcPort: 4, DstPort: 3})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	dataAB := workload.Payload(16000, 1)
	dataBA := workload.Payload(16000, 2)
	gotAB, gotBA := 0, 0
	baRx.SetHandler(func(p *sim.Proc, m *msg.Message) {
		if b, _ := m.Bytes(); bytes.Equal(b, dataAB) {
			gotAB++
		}
	})
	abRx.SetHandler(func(p *sim.Proc, m *msg.Message) {
		if b, _ := m.Bytes(); bytes.Equal(b, dataBA) {
			gotBA++
		}
	})
	tb.Eng.Go("a-sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			m, _ := msg.FromBytes(tb.A.Host.Kernel, dataAB)
			ab.Push(p, m)
		}
		tb.A.Drv.Flush(p)
	})
	tb.Eng.Go("b-sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			m, _ := msg.FromBytes(tb.B.Host.Kernel, dataBA)
			ba.Push(p, m)
		}
		tb.B.Drv.Flush(p)
	})
	tb.Eng.RunUntil(tb.Eng.Now().Add(100 * time.Millisecond))
	if gotAB != n || gotBA != n {
		t.Errorf("bidirectional delivery: A→B %d/%d, B→A %d/%d", gotAB, n, gotBA, n)
	}
}
