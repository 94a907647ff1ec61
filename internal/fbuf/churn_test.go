package fbuf

import (
	"math/rand"
	"testing"

	"repro/internal/atm"
	"repro/internal/hostsim"
	"repro/internal/sim"
)

// TestEvictionOrderIsLRU touches paths in a known order past the pool
// budget and checks that exactly the least recently used path falls
// out each time.
func TestEvictionOrderIsLRU(t *testing.T) {
	e, h, _ := newRig()
	m := NewManager(h, 4)
	dom := NewDomain(h, "drv")
	e.Go("t", func(p *sim.Proc) {
		for v := atm.VCI(1); v <= 4; v++ {
			if err := m.DefinePath(p, v, []*Domain{dom}, 1, 4096); err != nil {
				t.Fatal(err)
			}
		}
		// Recency now 4 > 3 > 2 > 1. Touch 1, making 2 the LRU.
		f, err := m.Alloc(p, 1, dom, 4096)
		if err != nil {
			t.Fatal(err)
		}
		m.Free(f)
		if err := m.DefinePath(p, 5, []*Domain{dom}, 1, 4096); err != nil {
			t.Fatal(err)
		}
		if m.CachedPaths() != 4 {
			t.Fatalf("cached paths = %d, want 4", m.CachedPaths())
		}
		for v := atm.VCI(1); v <= 5; v++ {
			_, live := m.pools[v]
			if live == (v == 2) {
				t.Fatalf("after eviction, path %d live=%v", v, live)
			}
		}
		// Next definition must evict 3, the tail after 2 left.
		if err := m.DefinePath(p, 6, []*Domain{dom}, 1, 4096); err != nil {
			t.Fatal(err)
		}
		if _, live := m.pools[3]; live {
			t.Fatal("path 3 survived; eviction order is not LRU")
		}
		if got := m.Stats().PathEvictions; got != 2 {
			t.Fatalf("evictions = %d, want 2", got)
		}
	})
	e.Run()
}

// TestDemotionUnmapsConsumers evicts a path whose fbuf is mapped into
// a consumer domain and proves the stale mapping is gone: the consumer
// read faults instead of seeing recycled memory. The producer mapping
// survives, as an uncached fbuf still needs its origin.
func TestDemotionUnmapsConsumers(t *testing.T) {
	e, h, _ := newRig()
	m := NewManager(h, 1)
	drv := NewDomain(h, "drv")
	app := NewDomain(h, "app")
	e.Go("t", func(p *sim.Proc) {
		if err := m.DefinePath(p, 7, []*Domain{drv, app}, 1, 4096); err != nil {
			t.Fatal(err)
		}
		f, err := m.Alloc(p, 7, drv, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Write(drv, 0, []byte("secret")); err != nil {
			t.Fatal(err)
		}
		m.Free(f) // back in the pool, still mapped in both domains
		if err := m.DefinePath(p, 8, []*Domain{drv}, 1, 4096); err != nil {
			t.Fatal(err) // capacity 1: evicts path 7, demoting f
		}
		if f.Cached() {
			t.Fatal("evicted path's fbuf still cached")
		}
		if f.MappedIn(app) {
			t.Fatal("demotion left the consumer mapping")
		}
		if _, err := f.Read(app, 0, 6); err == nil {
			t.Fatal("stale consumer mapping readable after demotion")
		}
		if !f.MappedIn(drv) {
			t.Fatal("demotion removed the producer mapping")
		}
		if got := m.Stats().Demotions; got != 1 {
			t.Fatalf("demotions = %d, want 1", got)
		}
		if m.Stats().PagesUnmapped == 0 {
			t.Fatal("no pages unmapped by demotion")
		}
	})
	e.Run()
}

// TestDemotionKeepsOnlyProducerAndRemaps demotes an fbuf mapped into a
// three-domain path: only the producer's mapping is left, at its old
// address, and transferring the fbuf into a consumer maps it there again.
func TestDemotionKeepsOnlyProducerAndRemaps(t *testing.T) {
	e, h, _ := newRig()
	m := NewManager(h, 1)
	drv := NewDomain(h, "drv")
	srv := NewDomain(h, "srv")
	app := NewDomain(h, "app")
	e.Go("t", func(p *sim.Proc) {
		if err := m.DefinePath(p, 7, []*Domain{drv, srv, app}, 1, 8192); err != nil {
			t.Fatal(err)
		}
		f, err := m.Alloc(p, 7, drv, 8192)
		if err != nil {
			t.Fatal(err)
		}
		drvVA, _ := f.VA(drv)
		m.Free(f)
		if err := m.DefinePath(p, 8, []*Domain{drv}, 1, 4096); err != nil {
			t.Fatal(err) // capacity 1: evicts path 7, demoting f
		}
		if len(f.vas) != 1 || f.vas[0] != (mapping{drv, drvVA}) {
			t.Fatalf("mappings after demotion = %v, want only the producer's at %#x", f.vas, drvVA)
		}
		if err := f.Write(drv, 4096, []byte("again")); err != nil {
			t.Fatal(err)
		}
		if err := f.Transfer(p, drv, app); err != nil {
			t.Fatal(err)
		}
		if !f.MappedIn(app) || f.MappedIn(srv) {
			t.Fatalf("after transfer into app: mapped in app %v, srv %v", f.MappedIn(app), f.MappedIn(srv))
		}
		got, err := f.Read(app, 4096, 5)
		if err != nil || string(got) != "again" {
			t.Fatalf("read through the new mapping = %q, %v", got, err)
		}
		if got := m.Stats().UncachedTransfers; got != 1 {
			t.Fatalf("uncached transfers = %d, want 1", got)
		}
	})
	e.Run()
}

// TestOutstandingFbufDemotesAtFree evicts a path while its fbuf is in
// flight: the fbuf must keep working (it is still mapped) and demote
// only when freed.
func TestOutstandingFbufDemotesAtFree(t *testing.T) {
	e, h, _ := newRig()
	m := NewManager(h, 1)
	drv := NewDomain(h, "drv")
	app := NewDomain(h, "app")
	e.Go("t", func(p *sim.Proc) {
		if err := m.DefinePath(p, 7, []*Domain{drv, app}, 1, 4096); err != nil {
			t.Fatal(err)
		}
		f, err := m.Alloc(p, 7, drv, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.DefinePath(p, 8, []*Domain{drv}, 1, 4096); err != nil {
			t.Fatal(err) // evicts path 7 with f outstanding
		}
		// In flight across the eviction: both mappings still live.
		if err := f.Write(drv, 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Read(app, 0, 1); err != nil {
			t.Fatal(err)
		}
		m.Free(f)
		if f.Cached() || f.MappedIn(app) {
			t.Fatal("outstanding fbuf did not demote at Free")
		}
	})
	e.Run()
}

// TestUndefinePathReclaims closes a path and checks every page comes
// back: pooled fbufs immediately, outstanding ones at Free.
func TestUndefinePathReclaims(t *testing.T) {
	e, h, _ := newRig()
	m := NewManager(h, 0)
	drv := NewDomain(h, "drv")
	app := NewDomain(h, "app")
	e.Go("t", func(p *sim.Proc) {
		free0 := h.Mem.FreePages()
		if err := m.DefinePath(p, 7, []*Domain{drv, app}, 4, 8192); err != nil {
			t.Fatal(err)
		}
		f, err := m.Alloc(p, 7, drv, 8192)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.UndefinePath(p, 7); err != nil {
			t.Fatal(err)
		}
		if m.CachedPaths() != 0 {
			t.Fatal("undefined path still cached")
		}
		if err := m.UndefinePath(p, 7); err == nil {
			t.Fatal("double undefine succeeded")
		}
		m.Free(f) // the outstanding fbuf is destroyed here
		if got := h.Mem.FreePages(); got != free0 {
			t.Fatalf("undefine leaked %d pages", free0-got)
		}
	})
	e.Run()
}

// FuzzFbufChurn drives a seeded random open/alloc/free/close/evict
// storm and asserts the two invariants that matter under churn: no
// leaked frames (every page returns once all paths close and fbufs
// free) and no double unmaps (unmapFrom panics on one).
func FuzzFbufChurn(f *testing.F) {
	f.Add(int64(1), uint(300))
	f.Add(int64(0x0514), uint(1000))
	f.Add(int64(42), uint(50))
	f.Fuzz(func(t *testing.T, seed int64, steps uint) {
		if steps > 2000 {
			steps = 2000
		}
		e := sim.NewEngine(9)
		h := hostsim.New(e, hostsim.DEC5000_200(), 2048)
		m := NewManager(h, 4)
		doms := []*Domain{NewDomain(h, "drv"), NewDomain(h, "srv"), NewDomain(h, "app")}
		rng := rand.New(rand.NewSource(seed))
		e.Go("churn", func(p *sim.Proc) {
			free0 := h.Mem.FreePages()
			var out []*Fbuf
			for i := uint(0); i < steps; i++ {
				v := atm.VCI(1 + rng.Intn(8))
				_, live := m.pools[v]
				switch rng.Intn(5) {
				case 0:
					if !live {
						nd := 1 + rng.Intn(len(doms))
						if err := m.DefinePath(p, v, doms[:nd], 1+rng.Intn(3), 4096); err != nil {
							t.Fatal(err)
						}
					}
				case 1:
					if live {
						if err := m.UndefinePath(p, v); err != nil {
							t.Fatal(err)
						}
					}
				case 2, 3:
					fb, err := m.Alloc(p, v, doms[0], 4096)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, fb)
				case 4:
					if n := len(out); n > 0 {
						i := rng.Intn(n)
						m.Free(out[i])
						out[i] = out[n-1]
						out = out[:n-1]
					}
				}
				if m.CachedPaths() > 4 {
					t.Fatal("capacity exceeded")
				}
			}
			// Drain: close every path, free every fbuf, and all frames
			// must come home. Uncached fbufs hold frames by design, so
			// destroy them through a final undefine-everything sweep.
			for v := atm.VCI(1); v <= 8; v++ {
				if _, live := m.pools[v]; live {
					if err := m.UndefinePath(p, v); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, fb := range out {
				m.Free(fb)
			}
			for _, fb := range m.uncached {
				m.destroy(fb)
			}
			m.uncached = nil
			if got := h.Mem.FreePages(); got != free0 {
				t.Fatalf("churn leaked %d pages (seed=%d steps=%d)", free0-got, seed, steps)
			}
		})
		e.Run()
	})
}
