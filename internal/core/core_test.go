package core

import (
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/hostsim"
	"repro/internal/msg"
	"repro/internal/sim"
)

// within asserts got lies in [want/tol, want*tol].
func within(t *testing.T, label string, got, want, tol float64) {
	t.Helper()
	if got < want/tol || got > want*tol {
		t.Errorf("%s = %.1f, want %.1f (×÷%.2f)", label, got, want, tol)
	}
}

func dsOptions() Options {
	return Options{Profile: hostsim.DEC5000_200(), Driver: driver.Config{Cache: driver.CacheLazy}}
}

func alOptions() Options {
	return Options{Profile: hostsim.DEC3000_600(), Driver: driver.Config{Cache: driver.CacheNone}}
}

func rtt(t *testing.T, opt Options, kind ProtoKind, size int) time.Duration {
	t.Helper()
	tb := NewTestbed(opt)
	defer tb.Shutdown()
	d, err := tb.RunLatency(kind, size, 3)
	if err != nil {
		t.Fatalf("RunLatency(%v,%d): %v", kind, size, err)
	}
	return d
}

func TestTable1LatencyBands(t *testing.T) {
	// The simulated Table 1 must land near the published values. The
	// tolerance reflects that this is a reproduction on a simulator, not
	// the authors' testbed; orderings are asserted exactly below.
	cases := []struct {
		opt   Options
		kind  ProtoKind
		size  int
		paper float64 // µs
	}{
		{dsOptions(), ATMRaw, 1, 353},
		{dsOptions(), ATMRaw, 1024, 417},
		{dsOptions(), ATMRaw, 2048, 486},
		{dsOptions(), UDPIP, 1, 598},
		{dsOptions(), UDPIP, 1024, 659},
		{dsOptions(), UDPIP, 2048, 725},
		{alOptions(), ATMRaw, 1, 154},
		{alOptions(), ATMRaw, 1024, 215},
		{alOptions(), UDPIP, 1, 316},
		{alOptions(), UDPIP, 1024, 376},
	}
	for _, c := range cases {
		got := rtt(t, c.opt, c.kind, c.size).Seconds() * 1e6
		within(t, c.opt.Profile.Name+" "+c.kind.String()+" RTT", got, c.paper, 1.30)
	}
}

func TestTable1Orderings(t *testing.T) {
	// Structural facts of Table 1: UDP/IP costs more than raw ATM; the
	// Alpha beats the DECstation; latency grows with message size.
	dsATM1 := rtt(t, dsOptions(), ATMRaw, 1)
	dsUDP1 := rtt(t, dsOptions(), UDPIP, 1)
	alATM1 := rtt(t, alOptions(), ATMRaw, 1)
	alUDP1 := rtt(t, alOptions(), UDPIP, 1)
	if dsUDP1 <= dsATM1 {
		t.Error("5000/200: UDP/IP not slower than raw ATM")
	}
	if alUDP1 <= alATM1 {
		t.Error("3000/600: UDP/IP not slower than raw ATM")
	}
	if alATM1 >= dsATM1 {
		t.Error("3000/600 not faster than 5000/200 (ATM)")
	}
	if alUDP1 >= dsUDP1 {
		t.Error("3000/600 not faster than 5000/200 (UDP)")
	}
	dsATM4K := rtt(t, dsOptions(), ATMRaw, 4096)
	if dsATM4K <= dsATM1 {
		t.Error("latency not increasing with message size")
	}
}

func rxThroughput(t *testing.T, opt Options, size int) float64 {
	t.Helper()
	tb := NewTestbed(opt)
	defer tb.Shutdown()
	mbps, err := tb.RunReceiveThroughput(size, 10)
	if err != nil {
		t.Fatalf("RunReceiveThroughput(%d): %v", size, err)
	}
	return mbps
}

func TestFigure2ReceiveSideShape(t *testing.T) {
	// DEC 5000/200 receive side at 64 KB: double-cell DMA 379 Mbps >
	// single-cell 340 > single-cell with eager invalidation 250 (§4).
	base := dsOptions()
	dbl := base
	dbl.Board = board.Config{RxDMA: board.DoubleCell}
	inval := base
	inval.Driver = driver.Config{Cache: driver.CacheEager}

	d := rxThroughput(t, dbl, 65536)
	s := rxThroughput(t, base, 65536)
	e := rxThroughput(t, inval, 65536)
	within(t, "Fig2 double-cell", d, 379, 1.15)
	within(t, "Fig2 single-cell", s, 340, 1.15)
	within(t, "Fig2 invalidated", e, 250, 1.15)
	if !(d > s && s > e) {
		t.Errorf("Fig2 ordering violated: dbl=%.0f sgl=%.0f inval=%.0f", d, s, e)
	}
	// Small messages are much slower (per-PDU software bound).
	small := rxThroughput(t, base, 1024)
	if small >= s/3 {
		t.Errorf("1KB throughput %.0f not ≪ 64KB %.0f", small, s)
	}
}

func TestFigure2ChecksumCollapse(t *testing.T) {
	// §4: with the CPU reading the data (UDP checksum on), the
	// DECstation collapses to ≈80 Mbps.
	opt := dsOptions()
	opt.Checksum = true
	got := rxThroughput(t, opt, 65536)
	within(t, "Fig2 UDP-CS", got, 80, 1.4)
}

func TestFigure3ReceiveSideShape(t *testing.T) {
	// DEC 3000/600: double-cell approaches the 516 Mbps link payload
	// bandwidth; checksumming drops it to ≈438 ("read and checksummed at
	// close to 90% of the network link speed"); single-cell sits at its
	// 463 Mbps DMA ceiling.
	base := alOptions()
	dbl := base
	dbl.Board = board.Config{RxDMA: board.DoubleCell}
	dblCS := dbl
	dblCS.Checksum = true

	d := rxThroughput(t, dbl, 65536)
	c := rxThroughput(t, dblCS, 65536)
	s := rxThroughput(t, base, 65536)
	within(t, "Fig3 double-cell", d, 516, 1.10)
	within(t, "Fig3 double-cell+CS", c, 438, 1.10)
	within(t, "Fig3 single-cell", s, 460, 1.10)
	if !(d > c) {
		t.Errorf("Fig3: checksum did not reduce throughput (%.0f vs %.0f)", d, c)
	}
	if !(d > s) {
		t.Errorf("Fig3: double-cell (%.0f) not above single-cell (%.0f)", d, s)
	}
	if c/d < 0.80 {
		t.Errorf("Fig3: checksummed fraction %.2f, paper says ≈0.85-0.90", c/d)
	}
	// Small messages improved greatly vs the DECstation (§4).
	alSmall := rxThroughput(t, base, 1024)
	dsSmall := rxThroughput(t, dsOptions(), 1024)
	if alSmall <= dsSmall {
		t.Error("Fig3: small-message throughput not improved over 5000/200")
	}
}

func txThroughput(t *testing.T, opt Options, size int) float64 {
	t.Helper()
	opt.TxIsolated = true
	tb := NewTestbed(opt)
	defer tb.Shutdown()
	mbps, err := tb.RunTransmitThroughput(size, 10)
	if err != nil {
		t.Fatalf("RunTransmitThroughput(%d): %v", size, err)
	}
	return mbps
}

func TestFigure4TransmitSideShape(t *testing.T) {
	// §4: "the maximal throughput achieved on the transmit side is
	// currently 325 Mbps ... limited entirely by TurboChannel contention
	// due to the high overhead of single ATM cell payload sized DMA."
	al := txThroughput(t, alOptions(), 65536)
	within(t, "Fig4 3000/600", al, 325, 1.12)
	ds := txThroughput(t, dsOptions(), 65536)
	if ds >= al {
		t.Errorf("Fig4: 5000/200 (%.0f) not below 3000/600 (%.0f)", ds, al)
	}
	within(t, "Fig4 5000/200", ds, 280, 1.25)
	// Both stay below the 367 Mbps single-cell DMA ceiling.
	if al > 367 || ds > 367 {
		t.Error("Fig4: transmit exceeded the single-cell DMA ceiling")
	}
	// Small messages slower.
	small := txThroughput(t, alOptions(), 1024)
	if small >= al {
		t.Error("Fig4: 1KB transmit not slower than 64KB")
	}
}

func TestReceiveThroughputMonotoneInSize(t *testing.T) {
	opt := alOptions()
	opt.Board = board.Config{RxDMA: board.DoubleCell}
	prev := 0.0
	for _, size := range []int{1024, 4096, 16384, 65536} {
		got := rxThroughput(t, opt, size)
		if got < prev*0.95 {
			t.Errorf("throughput fell from %.0f to %.0f at %d bytes", prev, got, size)
		}
		prev = got
	}
}

func TestADCLatencyEqualsKernelLatency(t *testing.T) {
	// §4's headline ADC result is asserted in the adc package; here we
	// confirm the testbed's kernel-to-kernel latency is self-consistent
	// across repeated experiments on fresh testbeds (determinism).
	a := rtt(t, alOptions(), ATMRaw, 1024)
	b := rtt(t, alOptions(), ATMRaw, 1024)
	if a != b {
		t.Errorf("identical experiments disagreed: %v vs %v", a, b)
	}
}

func TestSkewedLinksStillDeliver(t *testing.T) {
	opt := alOptions()
	opt.Board = board.Config{Strategy: board.FourAAL5}
	opt.Link.Skew = skewed()
	tb := NewTestbed(opt)
	defer tb.Shutdown()
	d, err := tb.RunLatency(UDPIP, 4096, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("no latency measured")
	}
	noSkew := rtt(t, alOptions(), UDPIP, 4096)
	if d < noSkew {
		t.Errorf("skewed path (%v) faster than clean path (%v)", d, noSkew)
	}
}

func TestProtoKindString(t *testing.T) {
	if ATMRaw.String() != "ATM" || UDPIP.String() != "UDP/IP" {
		t.Error("ProtoKind strings wrong")
	}
}

func TestTransmitRequiresIsolatedTestbed(t *testing.T) {
	tb := NewTestbed(alOptions())
	defer tb.Shutdown()
	if _, err := tb.RunTransmitThroughput(1024, 2); err == nil {
		t.Error("transmit experiment ran without TxIsolated")
	}
}

func skewed() atm.SkewModel {
	return atm.ConstantSkew{PerLink: []time.Duration{0, 8 * time.Microsecond, 3 * time.Microsecond, 12 * time.Microsecond}}
}

func TestLossyNetworkDropsButNeverCorrupts(t *testing.T) {
	// End-to-end failure injection: 0.5% cell loss with the UDP checksum
	// on. Some messages are lost (board-level AAL5 discard or IP
	// reassembly shortfall), but nothing corrupt is ever delivered.
	opt := alOptions()
	opt.Checksum = true
	opt.Link.Fault = &fault.Config{Loss: fault.Bernoulli{P: 0.005}}
	tb := NewTestbed(opt)
	defer tb.Shutdown()

	sa, sb, err := tb.OpenPair(0, 1, UDPIP)
	if err != nil {
		t.Fatal(err)
	}
	const n = 15
	const size = 8192
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	delivered, intact := 0, 0
	sb.SetHandler(func(p *sim.Proc, m *msg.Message) {
		delivered++
		b, _ := m.Bytes()
		if len(b) == size && string(b) == string(payload) {
			intact++
		}
	})
	tb.Eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			m, err := msg.FromBytes(tb.A.Host.Kernel, payload)
			if err != nil {
				t.Error(err)
				return
			}
			if err := sa.Push(p, m); err != nil {
				t.Error(err)
				return
			}
			tb.A.Drv.Flush(p)
			p.Sleep(300 * time.Microsecond)
		}
	})
	tb.Eng.RunUntil(tb.Eng.Now().Add(100 * time.Millisecond))
	_ = sa
	if delivered == 0 {
		t.Fatal("nothing delivered at 0.5% loss")
	}
	if intact != delivered {
		t.Errorf("%d corrupt messages delivered", delivered-intact)
	}
	dropsSomewhere := tb.B.Board.Stats().PDUsDropped > 0 ||
		tb.B.UDP.Stats().ChecksumErr > 0 || delivered < n
	if !dropsSomewhere {
		t.Error("no losses observed despite injected cell loss")
	}
}
