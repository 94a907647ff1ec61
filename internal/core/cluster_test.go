package core

import (
	"strings"
	"testing"

	"repro/internal/atm"
	"repro/internal/fault"
	"repro/internal/workload"
)

func TestTestbedIsTwoNodeCluster(t *testing.T) {
	tb := NewTestbed(Options{})
	defer tb.Shutdown()
	if len(tb.Nodes) != 2 || tb.A != tb.Nodes[0] || tb.B != tb.Nodes[1] {
		t.Error("testbed nodes not the cluster's nodes")
	}
	if tb.Fabric != nil {
		t.Error("back-to-back testbed must not have a fabric")
	}
	if tb.A.Addr != 1 || tb.B.Addr != 2 {
		t.Errorf("addrs = %d,%d, want 1,2", tb.A.Addr, tb.B.Addr)
	}
}

func TestSeedDefaultsAndZeroSentinel(t *testing.T) {
	if got := (Options{}).withDefaults().Seed; got != DefaultSeed {
		t.Errorf("zero-value Seed = %#x, want DefaultSeed", got)
	}
	if got := (Options{Seed: ZeroSeed}).withDefaults().Seed; got != 0 {
		t.Errorf("ZeroSeed maps to %#x, want literal 0", got)
	}
	if got := (Options{Seed: 7}).withDefaults().Seed; got != 7 {
		t.Errorf("explicit Seed = %d, want 7", got)
	}
}

func TestClusterLatencyAcrossSwitch(t *testing.T) {
	cl := NewCluster(Options{}, 3)
	defer cl.Shutdown()
	viaSwitch, err := cl.RunLatency(0, 2, UDPIP, 1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTestbed(Options{})
	defer tb.Shutdown()
	direct, err := tb.RunLatency(UDPIP, 1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	if viaSwitch <= 0 || direct <= 0 {
		t.Fatalf("rtt via switch %v, direct %v", viaSwitch, direct)
	}
	// The switched path adds a store-and-forward hop per direction, so
	// it must cost more than the paper's back-to-back wiring.
	if viaSwitch <= direct {
		t.Errorf("rtt via switch %v not above direct %v", viaSwitch, direct)
	}
}

func TestOpenPairValidation(t *testing.T) {
	cl := NewCluster(Options{}, 3)
	defer cl.Shutdown()
	for _, pair := range [][2]int{{-1, 0}, {0, 3}, {5, 1}} {
		if _, _, err := cl.OpenPair(pair[0], pair[1], UDPIP); err == nil {
			t.Errorf("OpenPair(%d,%d) did not error", pair[0], pair[1])
		}
	}
	if _, _, err := cl.OpenPair(1, 1, UDPIP); err == nil {
		t.Error("OpenPair to self did not error")
	}
}

func TestOpenPairVCICollisionSurfaces(t *testing.T) {
	cl := NewCluster(Options{}, 3)
	defer cl.Shutdown()
	// Claim the VCI the allocator will hand out next; the resulting
	// switch-route collision must surface as an error, not a misroute.
	if err := cl.Fabric.Route(atm.VCI(101), 2); err != nil {
		t.Fatal(err)
	}
	_, _, err := cl.OpenPair(0, 1, UDPIP)
	if err == nil {
		t.Fatal("OpenPair with colliding VCI did not error")
	}
	if !strings.Contains(err.Error(), "already routed") {
		t.Errorf("unexpected error: %v", err)
	}
	// The claimed route must still point where it was installed.
	if err := cl.Fabric.Route(atm.VCI(101), 2); err == nil || !strings.Contains(err.Error(), "already routed to port 2") {
		t.Errorf("route of VCI 101 after collision: %v", err)
	}
}

func TestFanInPacedDeliversEverythingIntact(t *testing.T) {
	cl := NewCluster(Options{}, 9)
	defer cl.Shutdown()
	w := workload.DefaultFanIn()
	res, err := cl.RunFanIn(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Sent {
		t.Errorf("delivered %d/%d messages", res.Delivered, res.Sent)
	}
	if res.Corrupt != 0 {
		t.Errorf("%d corrupt deliveries", res.Corrupt)
	}
	if res.SwitchDropped != 0 || res.SwitchNoRoute != 0 {
		t.Errorf("paced run lost cells in the fabric: dropped=%d noroute=%d", res.SwitchDropped, res.SwitchNoRoute)
	}
	if res.AggregateMbps <= 0 {
		t.Error("no aggregate throughput measured")
	}
	for _, c := range res.Clients {
		if c.Delivered != w.Messages {
			t.Errorf("client %d delivered %d/%d", c.Client, c.Delivered, w.Messages)
		}
		if c.Mbps <= 0 {
			t.Errorf("client %d has no throughput", c.Client)
		}
	}
	// The server's board also saw no loss: every cell the fabric
	// forwarded was absorbed.
	if st := cl.Nodes[0].Board.Stats(); st.CellsDroppedFIFO != 0 || st.PDUsDropped != 0 {
		t.Errorf("server board dropped: fifo=%d pdus=%d", st.CellsDroppedFIFO, st.PDUsDropped)
	}
}

func TestFanInOverloadDropsButNeverCorrupts(t *testing.T) {
	// Full rate, no pacing: 8 clients × 622 Mbps converge on one 622
	// Mbps egress — incast collapse. The switch queue must overflow
	// (counted), and whatever survives must be byte-for-byte intact.
	res, err := RunFanIn(Options{}, 8, 16*1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwitchDropped == 0 {
		t.Error("overloaded fabric recorded no drops")
	}
	if res.Corrupt != 0 {
		t.Errorf("%d corrupt deliveries under overload", res.Corrupt)
	}
	if res.Delivered >= res.Sent {
		t.Errorf("overload delivered %d/%d — not an overload", res.Delivered, res.Sent)
	}
}

func TestFanInValidation(t *testing.T) {
	tb := NewTestbed(Options{})
	defer tb.Shutdown()
	if _, err := tb.RunFanIn(workload.DefaultFanIn()); err == nil {
		t.Error("fan-in on a fabric-less testbed did not error")
	}
	cl := NewCluster(Options{}, 3)
	defer cl.Shutdown()
	if _, err := cl.RunFanIn(workload.FanIn{Clients: 5, MessageBytes: 1024, Messages: 1}); err == nil {
		t.Error("5 clients on a 3-node cluster did not error")
	}
	if _, err := cl.RunFanIn(workload.FanIn{Clients: 2, MessageBytes: 4, Messages: 1}); err == nil {
		t.Error("message below the identity header size did not error")
	}
	if _, err := cl.RunFanIn(workload.FanIn{Clients: 2, MessageBytes: 1024}); err == nil {
		t.Error("zero messages did not error")
	}
}

// TestTestbedHonoursStripeWidth: the testbed and the tenants experiment
// build their links at the board's stripe width, as NewCluster does, so
// a narrower board runs instead of tripping the board's link-count
// check.
func TestTestbedHonoursStripeWidth(t *testing.T) {
	for _, width := range []int{1, 2} {
		opt := Options{}
		opt.Board.StripeWidth = width
		tb := NewTestbed(opt)
		if got := tb.AB.Width(); got != width {
			t.Errorf("width %d: testbed built %d links", width, got)
		}
		rtt, err := tb.RunLatency(UDPIP, 1024, 3)
		tb.Shutdown()
		if err != nil || rtt <= 0 {
			t.Fatalf("width %d: rtt %v, err %v", width, rtt, err)
		}
	}
	opt := Options{}
	opt.Board.StripeWidth = 2
	res, err := RunTenants(opt, Tenants{Tenants: 8, PDUs: 2, PDUBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shortfall != 0 {
		t.Errorf("width 2 tenants shortfall %d (delivered %d/%d)", res.Shortfall, res.Delivered, res.Sent)
	}
}

func TestBackToBackTopologiesTakeAFaultedLink(t *testing.T) {
	// Both directions of a back-to-back pair share the caller's link
	// config, so each must derive its own injector stream, whether the
	// caller names a fault site or not. A zero-probability loss model
	// builds live injectors without changing what is delivered.
	for _, site := range []string{"", "x"} {
		opt := Options{Link: atm.LinkConfig{Fault: &fault.Config{Loss: fault.Bernoulli{}}, FaultSite: site}}
		tb := NewTestbed(opt)
		rtt, err := tb.RunLatency(UDPIP, 1024, 3)
		tb.Shutdown()
		if err != nil || rtt <= 0 {
			t.Fatalf("site %q: testbed rtt %v, err %v", site, rtt, err)
		}
		for dir, g := range map[string]*atm.StripeGroup{"A→B": tb.AB, "B→A": tb.BA} {
			if fs, ls := g.FaultStats(), g.Stats(); fs.Cells == 0 || fs.Cells != ls.Sent {
				t.Errorf("site %q %s: injector saw %d of %d cells", site, dir, fs.Cells, ls.Sent)
			}
		}
		res, err := RunTenants(opt, Tenants{Tenants: 8, PDUs: 2, PDUBytes: 1024})
		if err != nil {
			t.Fatalf("site %q: tenants: %v", site, err)
		}
		if res.Shortfall != 0 {
			t.Errorf("site %q: tenants shortfall %d (delivered %d/%d)", site, res.Shortfall, res.Delivered, res.Sent)
		}
	}
}
