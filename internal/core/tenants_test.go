package core

import (
	"testing"

	"repro/internal/fbuf"
)

// TestTenantsSteadyDelivery runs a modest steady multi-tenant workload
// with churn: every tenant's PDUs must arrive, the churn cycles must
// complete, and the fbuf cache must see real eviction pressure once the
// tenant count exceeds its budget. Another seed shifts the event
// interleaving but must still deliver everything.
func TestTenantsSteadyDelivery(t *testing.T) {
	cfg := Tenants{Tenants: 24, PDUs: 3, PDUBytes: 1024, Churn: 8}
	if res, err := RunTenants(Options{Seed: 7}, cfg); err != nil {
		t.Fatalf("seed 7: %v", err)
	} else if res.Shortfall != 0 {
		t.Fatalf("seed 7 shortfall %d", res.Shortfall)
	}
	res, err := RunTenants(Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shortfall != 0 {
		t.Fatalf("steady shortfall %d (delivered %d/%d)", res.Shortfall, res.Delivered, res.Sent)
	}
	if !res.Isolated {
		t.Fatalf("min delivered %d of %d without any misbehaving tenant", res.MinDelivered, res.PDUs)
	}
	if res.ChurnCycles != 8 || res.ChurnDelivered != 8 {
		t.Fatalf("churn cycles %d delivered %d, want 8/8", res.ChurnCycles, res.ChurnDelivered)
	}
	if res.MuxChannels == 0 || res.PeakBoundVCIs < 24 {
		t.Fatalf("mux channels %d, bound VCIs %d", res.MuxChannels, res.PeakBoundVCIs)
	}
	// 24 steady paths + churn over a 16-path budget must evict.
	if res.FbufEvictions == 0 {
		t.Fatal("no fbuf evictions under path churn")
	}
	if res.FbufHits == 0 {
		t.Fatal("no cached fbuf allocations at all")
	}
	if res.Violations != 0 {
		t.Fatalf("%d spurious violations", res.Violations)
	}
	if res.PerPDUCost <= 0 {
		t.Fatal("per-PDU cost not measured")
	}
}

// TestTenantsMisbehaverIsolated runs the seeded misbehaving-tenant
// scenario: a full-blast sender whose receiver never reaps shares the
// adaptor with paced innocents. With the fairness mechanisms on, every
// innocent still gets its PDUs through while the hog's are dropped at
// the board.
func TestTenantsMisbehaverIsolated(t *testing.T) {
	res, err := RunTenants(Options{}, Tenants{Tenants: 16, PDUs: 4, PDUBytes: 1024, Misbehave: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Isolated {
		t.Fatalf("innocents not isolated: min delivered %d of %d (shortfall %d)",
			res.MinDelivered, res.PDUs, res.Shortfall)
	}
	if res.HogSent == 0 {
		t.Fatal("hog sent nothing; scenario is vacuous")
	}
	if res.QuotaDropped == 0 && res.RingDropped == 0 {
		t.Fatal("no quota or ring drops; the hog was never actually curbed")
	}
}

// TestTenantsScaleOutPastChannels opens 64 tenants over 15 channels
// with a small fbuf budget and checks the per-PDU cost is measured and
// the cache is under genuine pressure — the sweep's smallest interesting
// point, kept cheap enough for the tier-1 suite.
func TestTenantsScaleOutPastChannels(t *testing.T) {
	res, err := RunTenants(Options{}, Tenants{
		Tenants: 64, PDUs: 2, PDUBytes: 1024, Churn: 4,
		FbufPaths: fbuf.DefaultMaxCachedPaths,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shortfall != 0 {
		t.Fatalf("shortfall %d at 64 tenants", res.Shortfall)
	}
	if res.PeakBoundVCIs < 64 {
		t.Fatalf("bound VCIs %d, want >= 64", res.PeakBoundVCIs)
	}
	if res.MuxChannels != 15 {
		t.Fatalf("mux channels %d, want all 15", res.MuxChannels)
	}
	if res.FbufEvictions == 0 || res.FbufDemotions == 0 {
		t.Fatalf("no cache pressure at 64 tenants over a 16-path budget (evictions %d, demotions %d)",
			res.FbufEvictions, res.FbufDemotions)
	}
}

// TestTenantsFbufMissesUnderChurn pins the degraded end of the cache: a
// one-path budget means every define evicts the previous tenant's path,
// so any PDU arriving after its successor's setup must take the
// uncached (miss) route while deliveries right after definition still
// hit.
func TestTenantsFbufMissesUnderChurn(t *testing.T) {
	res, err := RunTenants(Options{}, Tenants{
		Tenants: 8, PDUs: 3, PDUBytes: 8192, FbufPaths: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shortfall != 0 {
		t.Fatalf("shortfall %d", res.Shortfall)
	}
	if res.FbufMisses == 0 {
		t.Fatal("one-path budget produced no misses")
	}
	if res.FbufHits == 0 {
		t.Fatal("no hits at all; even freshly defined paths missed")
	}
}

// TestTenantPDUCheckIsByteExact pins the receive check RunTenants
// counts deliveries with: a PDU whose length and leading bytes are
// right but whose last byte is damaged must not count as delivered.
func TestTenantPDUCheckIsByteExact(t *testing.T) {
	const n, vci = 2048, 137
	pdu := make([]byte, n)
	for i := range pdu {
		pdu[i] = vci
	}
	if !tenantPDUIntact(pdu, n, vci) {
		t.Fatal("intact PDU rejected")
	}
	if tenantPDUIntact(pdu[:n-1], n, vci) {
		t.Fatal("short PDU accepted")
	}
	pdu[n-1] ^= 0x01
	if tenantPDUIntact(pdu, n, vci) {
		t.Fatal("PDU corrupted at its last byte accepted")
	}
}
