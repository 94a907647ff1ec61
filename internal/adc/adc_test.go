package adc

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/dpm"
	"repro/internal/driver"
	"repro/internal/hostsim"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/queue"
	"repro/internal/sim"
)

// adcRig is two hosts with ADC managers, linked both ways.
type adcRig struct {
	eng      *sim.Engine
	hA, hB   *hostsim.Host
	bA, bB   *board.Board
	mgA, mgB *Manager
}

func newADCRig(t *testing.T) *adcRig {
	t.Helper()
	e := sim.NewEngine(11)
	hA := hostsim.New(e, hostsim.DEC3000_600(), 4096)
	hB := hostsim.New(e, hostsim.DEC3000_600(), 4096)
	bA := board.New(e, hA, board.Config{Name: "A"})
	bB := board.New(e, hB, board.Config{Name: "B"})
	ab := atm.NewStripeGroup(e, 4, atm.LinkConfig{})
	ba := atm.NewStripeGroup(e, 4, atm.LinkConfig{})
	bA.AttachTxLinks(ab.Links())
	bB.AttachRxLinks(ab)
	bB.AttachTxLinks(ba.Links())
	bA.AttachRxLinks(ba)
	return &adcRig{eng: e, hA: hA, hB: hB, bA: bA, bB: bB,
		mgA: NewManager(hA, bA), mgB: NewManager(hB, bB)}
}

func pattern(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i)*3 + seed
	}
	return out
}

func TestADCUserToUserRoundTrip(t *testing.T) {
	r := newADCRig(t)
	appA := NewAppDomain(r.hA, "appA")
	appB := NewAppDomain(r.hB, "appB")
	data := pattern(6000, 1)
	var got []byte
	r.eng.Go("main", func(p *sim.Proc) {
		adcA, err := r.mgA.Open(p, appA, []atm.VCI{40}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		adcB, err := r.mgB.Open(p, appB, []atm.VCI{40}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		done := sim.NewCond(r.eng)
		adcB.Driver().OpenPath(40, func(hp *sim.Proc, m *msg.Message) {
			got, _ = m.Bytes()
			done.Broadcast()
		})
		pt := adcA.Driver().OpenPath(40, nil)

		// The application writes into one of its authorized buffers and
		// queues it — no kernel call anywhere on this path.
		va, size, err := adcA.TxBuffer(0)
		if err != nil {
			t.Fatal(err)
		}
		if size < len(data) {
			t.Fatalf("tx buffer too small: %d", size)
		}
		if err := appA.Space.WriteVirt(va, data); err != nil {
			t.Fatal(err)
		}
		m := msg.New(msg.Fragment{Space: appA.Space, VA: va, Len: len(data)})
		if err := adcA.Driver().Send(p, pt, m, nil); err != nil {
			t.Fatal(err)
		}
		for got == nil {
			done.Wait(p)
		}
	})
	r.eng.Run()
	r.eng.Shutdown()
	if !bytes.Equal(got, data) {
		t.Fatal("ADC round trip corrupted")
	}
	if r.mgA.Violations(1)+r.mgB.Violations(1) != 0 {
		t.Error("spurious violations")
	}
}

func TestADCUnauthorizedBufferRaisesException(t *testing.T) {
	r := newADCRig(t)
	appA := NewAppDomain(r.hA, "appA")
	violated := make(chan int, 1)
	r.mgA.OnViolation = func(ch int) {
		select {
		case violated <- ch:
		default:
		}
	}
	r.eng.Go("main", func(p *sim.Proc) {
		adcA, err := r.mgA.Open(p, appA, []atm.VCI{41}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		pt := adcA.Driver().OpenPath(41, nil)
		_ = pt
		// Forge a descriptor naming a frame the OS never granted.
		evil, _ := r.hA.Mem.AllocFrame()
		ch := r.bA.Channel(adcA.Index)
		ch.TxRing.TryPush(p, dpm.Host, queue.Desc{
			Addr: r.hA.Mem.FrameAddr(evil), Len: 100, VCI: 41, Flags: queue.FlagEOP,
		})
		r.bA.KickTx()
		p.Sleep(500 * time.Microsecond)
	})
	r.eng.Run()
	r.eng.Shutdown()
	select {
	case ch := <-violated:
		if ch != 1 {
			t.Errorf("violation on channel %d, want 1", ch)
		}
	default:
		t.Error("no violation exception delivered")
	}
	if r.bA.Stats().PDUsTx != 0 {
		t.Error("forged PDU was transmitted")
	}
}

func TestADCLatencyMatchesKernelPath(t *testing.T) {
	// §4: "user-to-user performance using application device channels
	// ... within the error margins of those obtained in the
	// kernel-to-kernel case". Ping-pong both ways and compare RTTs.
	rtt := func(useADC bool) time.Duration {
		r := newADCRig(t)
		data := pattern(1024, 2)
		var drvA, drvB *driver.Driver
		var sendSpaceA *mem.AddressSpace
		var txVA, echoVA mem.VirtAddr
		done := sim.NewCond(r.eng)
		var rttOut time.Duration
		r.eng.Go("main", func(p *sim.Proc) {
			if useADC {
				appA := NewAppDomain(r.hA, "appA")
				appB := NewAppDomain(r.hB, "appB")
				adcA, err := r.mgA.Open(p, appA, []atm.VCI{50}, Config{})
				if err != nil {
					t.Fatal(err)
				}
				adcB, err := r.mgB.Open(p, appB, []atm.VCI{50}, Config{})
				if err != nil {
					t.Fatal(err)
				}
				drvA, drvB = adcA.Driver(), adcB.Driver()
				sendSpaceA = appA.Space
				va, _, err := adcA.TxBuffer(0)
				if err != nil {
					t.Fatal(err)
				}
				txVA = va
				// B's echo must come from a buffer the OS authorized for
				// B's channel — that is the ADC security model.
				eva, _, err := adcB.TxBuffer(0)
				if err != nil {
					t.Fatal(err)
				}
				echoVA = eva
			} else {
				drvA = driver.New(r.eng, r.hA, r.bA, driver.Config{Cache: driver.CacheNone})
				drvB = driver.New(r.eng, r.hB, r.bB, driver.Config{Cache: driver.CacheNone})
				sendSpaceA = r.hA.Kernel
				va, err := sendSpaceA.Alloc(len(data))
				if err != nil {
					t.Fatal(err)
				}
				txVA = va
				eva, err := r.hB.Kernel.Alloc(len(data))
				if err != nil {
					t.Fatal(err)
				}
				echoVA = eva
			}
			// B echoes.
			var ptB *driver.Path
			drvB.OpenPath(50, func(hp *sim.Proc, m *msg.Message) {
				b, _ := m.Bytes()
				if err := drvB.Space().WriteVirt(echoVA, b); err != nil {
					t.Error(err)
					return
				}
				reply := msg.New(msg.Fragment{Space: drvB.Space(), VA: echoVA, Len: len(b)})
				drvB.Send(hp, ptB, reply, nil)
			})
			ptB = drvB.OpenPath(51, nil)
			gotReply := false
			drvA.OpenPath(51, func(hp *sim.Proc, m *msg.Message) {
				gotReply = true
				done.Broadcast()
			})
			ptA := drvA.OpenPath(50, nil)

			sendSpaceA.WriteVirt(txVA, data)
			m := msg.New(msg.Fragment{Space: sendSpaceA, VA: txVA, Len: len(data)})
			start := p.Now()
			if err := drvA.Send(p, ptA, m, nil); err != nil {
				t.Fatal(err)
			}
			for !gotReply {
				done.Wait(p)
			}
			rttOut = time.Duration(p.Now() - start)
		})
		r.eng.Run()
		r.eng.Shutdown()
		return rttOut
	}
	kernel := rtt(false)
	user := rtt(true)
	if kernel == 0 || user == 0 {
		t.Fatal("ping-pong failed")
	}
	diff := user - kernel
	if diff < 0 {
		diff = -diff
	}
	// "Within the error margins": allow 10%.
	if float64(diff) > 0.10*float64(kernel) {
		t.Errorf("ADC RTT %v vs kernel RTT %v: difference exceeds 10%%", user, kernel)
	}
}

func TestADCChannelExhaustion(t *testing.T) {
	r := newADCRig(t)
	app := NewAppDomain(r.hA, "app")
	r.eng.Go("main", func(p *sim.Proc) {
		opened := 0
		for i := 0; i < board.NumChannels; i++ {
			if _, err := r.mgA.Open(p, app, []atm.VCI{atm.VCI(60 + i)}, Config{BufCount: 1, ExtraPages: 4}); err != nil {
				break
			}
			opened++
		}
		if opened != board.NumChannels-1 {
			t.Errorf("opened %d ADCs, want %d (channel 0 is the kernel's)", opened, board.NumChannels-1)
		}
	})
	r.eng.Run()
	r.eng.Shutdown()
}

func TestADCCloseFreesChannel(t *testing.T) {
	r := newADCRig(t)
	app := NewAppDomain(r.hA, "app")
	r.eng.Go("main", func(p *sim.Proc) {
		a, err := r.mgA.Open(p, app, []atm.VCI{70}, Config{BufCount: 1, ExtraPages: 4})
		if err != nil {
			t.Fatal(err)
		}
		idx := a.Index
		r.mgA.Close(a)
		r.mgA.Close(a) // idempotent
		b, err := r.mgA.Open(p, NewAppDomain(r.hA, "app2"), []atm.VCI{71}, Config{BufCount: 1, ExtraPages: 4})
		if err != nil {
			t.Fatal(err)
		}
		if b.Index != idx {
			t.Errorf("freed channel %d not reused (got %d)", idx, b.Index)
		}
	})
	r.eng.Run()
	r.eng.Shutdown()
}

func TestTxBufferRange(t *testing.T) {
	r := newADCRig(t)
	app := NewAppDomain(r.hA, "app")
	r.eng.Go("main", func(p *sim.Proc) {
		a, err := r.mgA.Open(p, app, []atm.VCI{80}, Config{BufCount: 1, ExtraPages: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.TxBuffer(-1); err == nil {
			t.Error("negative index accepted")
		}
		if _, _, err := a.TxBuffer(99); err == nil {
			t.Error("out-of-range index accepted")
		}
	})
	r.eng.Run()
	r.eng.Shutdown()
}

func TestADCUnauthorizedFreeBufferDiscarded(t *testing.T) {
	// The receive side of the §3.2 protection model: a free-ring buffer
	// naming unauthorized frames must be discarded by the board (with a
	// violation) and never used for reassembly.
	r := newADCRig(t)
	app := NewAppDomain(r.hA, "app")
	r.eng.Go("main", func(p *sim.Proc) {
		a, err := r.mgA.Open(p, app, []atm.VCI{90}, Config{BufCount: 2})
		if err != nil {
			t.Fatal(err)
		}
		ch := r.bA.Channel(a.Index)
		// Forge an unauthorized free buffer.
		evil, _ := r.hA.Mem.AllocContiguous(4)
		ch.FreeRing.TryPush(p, dpm.Host, queue.Desc{
			Addr: r.hA.Mem.FrameAddr(evil[0]), Len: 16384,
		})
		// Drain the channel's legitimate buffers by consuming PDUs until
		// the forged descriptor would be next; simply deliver PDUs and
		// verify none lands in the evil frames.
		data := pattern(2000, 9)
		for k := 0; k < 4; k++ {
			cells := atm.Segment(90, data, 4, false)
			for i := range cells {
				r.bA.InjectCell(cells[i], i%4)
				p.Sleep(700 * time.Nanosecond)
			}
			p.Sleep(500 * time.Microsecond)
		}
		evilBytes := r.hA.Mem.Read(r.hA.Mem.FrameAddr(evil[0]), 2000)
		for _, b := range evilBytes {
			if b != 0 {
				t.Error("data was DMA'd into an unauthorized frame")
				break
			}
		}
	})
	r.eng.Run()
	r.eng.Shutdown()
	if r.mgA.Violations(1) == 0 {
		t.Error("no violation raised for the forged free buffer")
	}
}

func TestADCBulkTransferThroughput(t *testing.T) {
	// A sanity check that the ADC data path sustains bulk transfer: the
	// application pushes many messages through its channel driver with
	// zero kernel involvement after setup.
	r := newADCRig(t)
	appA := NewAppDomain(r.hA, "appA")
	appB := NewAppDomain(r.hB, "appB")
	const n = 10
	data := pattern(8000, 5)
	got := 0
	r.eng.Go("main", func(p *sim.Proc) {
		adcA, err := r.mgA.Open(p, appA, []atm.VCI{91}, Config{ExtraPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		adcB, err := r.mgB.Open(p, appB, []atm.VCI{91}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		done := sim.NewCond(r.eng)
		adcB.Driver().OpenPath(91, func(hp *sim.Proc, m *msg.Message) {
			b, _ := m.Bytes()
			if bytes.Equal(b, data) {
				got++
			}
			if got == n {
				done.Broadcast()
			}
		})
		pt := adcA.Driver().OpenPath(91, nil)
		va, size, err := adcA.TxBuffer(0)
		if err != nil || size < len(data) {
			t.Fatalf("tx buffer: %v size %d", err, size)
		}
		appA.Space.WriteVirt(va, data)
		m := msg.New(msg.Fragment{Space: appA.Space, VA: va, Len: len(data)})
		for i := 0; i < n; i++ {
			if err := adcA.Driver().Send(p, pt, m, nil); err != nil {
				t.Fatal(err)
			}
			adcA.Driver().Flush(p)
		}
		for got < n {
			done.Wait(p)
		}
	})
	r.eng.Run()
	r.eng.Shutdown()
	if got != n {
		t.Errorf("delivered %d/%d through the ADC path", got, n)
	}
}
