package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func newCache(policy CoherencePolicy) (*Cache, *mem.Memory) {
	m := mem.New(mem.Config{Pages: 64})
	return New(m, Config{Size: 1024, LineSize: 16, Policy: policy}), m
}

func TestReadMissThenHit(t *testing.T) {
	c, m := newCache(Incoherent)
	m.Write(0, []byte("hello, cache!"))
	var buf [13]byte
	hits, misses := c.Read(0, buf[:])
	if hits != 0 || misses != 1 {
		t.Errorf("first read: hits=%d misses=%d, want 0/1", hits, misses)
	}
	if string(buf[:]) != "hello, cache!" {
		t.Errorf("read %q", buf)
	}
	hits, misses = c.Read(0, buf[:])
	if hits != 1 || misses != 0 {
		t.Errorf("second read: hits=%d misses=%d, want 1/0", hits, misses)
	}
}

func TestReadSpanningLines(t *testing.T) {
	c, m := newCache(Incoherent)
	data := make([]byte, 40)
	for i := range data {
		data[i] = byte(i)
	}
	m.Write(8, data) // spans lines at 0,16,32,48? 8..48 → lines 0,16,32
	var buf [40]byte
	hits, misses := c.Read(8, buf[:])
	if misses != 3 || hits != 0 {
		t.Errorf("hits=%d misses=%d, want 0/3", hits, misses)
	}
	if !bytes.Equal(buf[:], data) {
		t.Error("data mismatch")
	}
}

func TestWriteThroughUpdatesMemoryAndLine(t *testing.T) {
	c, m := newCache(Incoherent)
	var buf [4]byte
	c.Read(0, buf[:]) // bring line in
	c.Write(0, []byte{9, 8, 7, 6})
	if !bytes.Equal(m.Read(0, 4), []byte{9, 8, 7, 6}) {
		t.Error("memory not updated (write-through violated)")
	}
	c.Read(0, buf[:])
	if !bytes.Equal(buf[:], []byte{9, 8, 7, 6}) {
		t.Error("cached line not updated on write hit")
	}
	if c.Stats().StaleReads != 0 {
		t.Error("CPU's own write made its cache stale")
	}
}

func TestWriteMissDoesNotAllocate(t *testing.T) {
	c, _ := newCache(Incoherent)
	c.Write(128, []byte{1, 2, 3, 4})
	if c.Resident(128) {
		t.Error("write miss allocated a line (no-write-allocate violated)")
	}
}

func TestIncoherentDMALeavesStaleLine(t *testing.T) {
	c, m := newCache(Incoherent)
	m.Write(0, []byte("AAAA"))
	var buf [4]byte
	c.Read(0, buf[:]) // cache now holds AAAA
	c.DMAWrite(0, []byte("BBBB"))
	if !bytes.Equal(m.Read(0, 4), []byte("BBBB")) {
		t.Fatal("DMA did not reach memory")
	}
	c.Read(0, buf[:])
	if string(buf[:]) != "AAAA" {
		t.Errorf("read %q, want stale AAAA on incoherent cache", buf)
	}
	if c.Stats().StaleReads != 1 {
		t.Errorf("StaleReads = %d, want 1", c.Stats().StaleReads)
	}
}

func TestDMAUpdatePolicyRefreshesLine(t *testing.T) {
	c, _ := newCache(DMAUpdate)
	var buf [4]byte
	c.Read(0, buf[:])
	c.DMAWrite(0, []byte("CCCC"))
	c.Read(0, buf[:])
	if string(buf[:]) != "CCCC" {
		t.Errorf("read %q, want fresh CCCC with DMAUpdate", buf)
	}
	if c.Stats().StaleReads != 0 {
		t.Errorf("StaleReads = %d, want 0", c.Stats().StaleReads)
	}
}

func TestInvalidateClearsStaleness(t *testing.T) {
	c, _ := newCache(Incoherent)
	var buf [4]byte
	c.Read(0, buf[:])
	c.DMAWrite(0, []byte("DDDD"))
	words := c.Invalidate(0, 16)
	if words != 4 {
		t.Errorf("Invalidate returned %d words, want 4", words)
	}
	c.Read(0, buf[:])
	if string(buf[:]) != "DDDD" {
		t.Errorf("read %q after invalidate, want DDDD", buf)
	}
	if c.Stats().StaleReads != 0 {
		t.Error("stale read after invalidation")
	}
}

func TestInvalidateCostCountsWholeRange(t *testing.T) {
	c, _ := newCache(Incoherent)
	// Nothing resident, but the invalidation loop still visits the range.
	words := c.Invalidate(0, 1024)
	if words != 256 {
		t.Errorf("words = %d, want 256", words)
	}
	if c.Stats().InvalidatedWords != 256 {
		t.Errorf("stats.InvalidatedWords = %d", c.Stats().InvalidatedWords)
	}
}

func TestConflictEviction(t *testing.T) {
	// Two addresses that map to the same set in a 1KB direct-mapped cache
	// evict each other.
	c, _ := newCache(Incoherent)
	var buf [4]byte
	c.Read(0, buf[:])
	c.Read(1024, buf[:]) // same index, different tag
	if c.Resident(0) {
		t.Error("conflicting line not evicted")
	}
	if !c.Resident(1024) {
		t.Error("new line not resident")
	}
}

func TestStaleLinesDiagnostic(t *testing.T) {
	c, _ := newCache(Incoherent)
	buf := make([]byte, 64)
	c.Read(0, buf)
	c.DMAWrite(0, bytes.Repeat([]byte{0xFF}, 64))
	if got := c.StaleLines(0, 64); got != 4 {
		t.Errorf("StaleLines = %d, want 4", got)
	}
	c.Invalidate(0, 64)
	if got := c.StaleLines(0, 64); got != 0 {
		t.Errorf("StaleLines after invalidate = %d, want 0", got)
	}
}

// TestReadHitAndStaleLinesDoNotAllocate pins the in-place comparison of
// a hit's cached line with memory: reading a resident line, fresh or
// stale, and counting stale lines allocate nothing.
func TestReadHitAndStaleLinesDoNotAllocate(t *testing.T) {
	c, _ := newCache(Incoherent)
	var buf [64]byte
	c.Read(0, buf[:])
	check := func(what string, wantStale int) {
		t.Helper()
		before := c.Stats().StaleReads
		if a := testing.AllocsPerRun(100, func() { c.Read(0, buf[:]) }); a != 0 {
			t.Errorf("%s: %v allocations per 4-line hit, want 0", what, a)
		}
		if a := testing.AllocsPerRun(100, func() { c.StaleLines(0, len(buf)) }); a != 0 {
			t.Errorf("%s: %v allocations per StaleLines, want 0", what, a)
		}
		if got := c.StaleLines(0, len(buf)); got != wantStale {
			t.Errorf("%s: StaleLines = %d, want %d", what, got, wantStale)
		}
		if wantStale > 0 && c.Stats().StaleReads == before {
			t.Errorf("%s: hits on stale lines not counted", what)
		}
	}
	check("fresh", 0)
	c.DMAWrite(16, bytes.Repeat([]byte{0xFF}, 32))
	check("stale", 2)
}

func TestNaturalEvictionBoundsStaleness(t *testing.T) {
	// The paper's lazy-invalidation argument (§2.3): if the CPU touches
	// much more data than the cache holds between reuses of a DMA buffer,
	// the stale lines are evicted naturally. Simulate: cache a buffer,
	// DMA over it, stream 4x the cache size of other data through the
	// cache, then re-read the buffer — it must not be stale.
	c, m := newCache(Incoherent)
	var buf [64]byte
	c.Read(0, buf[:])
	c.DMAWrite(0, bytes.Repeat([]byte{0xEE}, 64))
	stream := make([]byte, 4*c.Size())
	c.Read(4096, stream[:len(stream)/2])
	c.Read(mem.PhysAddr(4096+len(stream)/2), stream[len(stream)/2:])
	c.ResetStats()
	c.Read(0, buf[:])
	if c.Stats().StaleReads != 0 {
		t.Errorf("StaleReads = %d after heavy eviction, want 0", c.Stats().StaleReads)
	}
	if !bytes.Equal(buf[:16], m.Read(0, 16)) {
		t.Error("re-read returned stale bytes")
	}
}

func TestPolicyString(t *testing.T) {
	if Incoherent.String() != "incoherent" || DMAUpdate.String() != "dma-update" {
		t.Error("String() labels wrong")
	}
	if CoherencePolicy(9).String() == "" {
		t.Error("unknown policy printed empty")
	}
}

func TestDefaultsAndValidation(t *testing.T) {
	m := mem.New(mem.Config{Pages: 64})
	c := New(m, Config{})
	if c.Size() != 64*1024 || c.LineSize() != 16 {
		t.Errorf("defaults: size=%d line=%d", c.Size(), c.LineSize())
	}
	defer func() {
		if recover() == nil {
			t.Error("bad size/line combo did not panic")
		}
	}()
	New(m, Config{Size: 100, LineSize: 16})
}

// Property: in the absence of DMA, reading through the cache always
// equals reading memory directly, for arbitrary interleavings of reads
// and CPU writes.
func TestCoherentWithoutDMAQuick(t *testing.T) {
	m := mem.New(mem.Config{Pages: 4})
	c := New(m, Config{Size: 256, LineSize: 16})
	f := func(ops []struct {
		Addr  uint16
		Data  byte
		Write bool
	}) bool {
		for _, op := range ops {
			a := mem.PhysAddr(op.Addr % 8192)
			if op.Write {
				c.Write(a, []byte{op.Data})
			} else {
				var b [1]byte
				c.Read(a, b[:])
				if b[0] != m.Read(a, 1)[0] {
					return false
				}
			}
		}
		return c.Stats().StaleReads == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRelease(t *testing.T) {
	c, _ := newCache(Incoherent)
	var buf [4]byte
	c.Read(0, buf[:])
	c.Release()
	c.Release() // a second call does nothing
	defer func() {
		if _, ok := recover().(runtime.Error); !ok {
			t.Error("Read after Release did not fail a bounds check")
		}
	}()
	c.Read(0, buf[:])
}

// Property: over one seeded random sequence of CPU reads and writes, DMA
// writes, invalidations and flushes, under either coherence policy, a
// cache whose line store starts full of 0xDE behaves exactly as one
// whose store starts zeroed: the same bytes, hits, misses and stale
// reads. So a slot's content before its line's first fill is never seen,
// and the store may come from memory nobody cleared. And a line not
// filled since it was last dropped never hits: the zero tag of a fresh
// or emptied slot marks it invalid, physical line 0 included, which the
// sequence starts with and keeps coming back to.
func TestUnfilledStoreNeverObserved(t *testing.T) {
	for _, policy := range []CoherencePolicy{Incoherent, DMAUpdate} {
		cfg := Config{Size: 1024, LineSize: 16, Policy: policy}
		lines := cfg.Size / cfg.LineSize
		zero := newWithStore(mem.New(mem.Config{Pages: 1}), cfg, make([]byte, cfg.Size), make([]uint32, lines))
		dirty := newWithStore(mem.New(mem.Config{Pages: 1}), cfg, bytes.Repeat([]byte{0xDE}, cfg.Size), make([]uint32, lines))
		// filled holds the lines read in since they were last invalidated
		// or flushed; a conflict may have evicted one since, so it bounds
		// the hits from above.
		filled := map[uint32]bool{}
		spanned := func(a, n int) []uint32 {
			var ls []uint32
			for l := a - a%cfg.LineSize; l < a+n; l += cfg.LineSize {
				ls = append(ls, uint32(l))
			}
			return ls
		}
		if h, m := dirty.Read(0, make([]byte, 4)); h != 0 || m != 1 {
			t.Fatalf("%v: first read of physical line 0: %d hits, %d misses, want a miss", policy, h, m)
		}
		zero.Read(0, make([]byte, 4))
		filled[0] = true
		span := 2 * cfg.Size // twice the cache, so lines both hit and conflict
		rng := rand.New(rand.NewSource(int64(policy) + 1))
		for step := 0; step < 5000; step++ {
			a, n := rng.Intn(span-64), 1+rng.Intn(64)
			if step%16 == 0 {
				a = 0
			}
			var got, want [2]int
			var desc string
			switch rng.Intn(8) {
			case 0, 1, 2:
				desc = fmt.Sprintf("Read(%d, %d)", a, n)
				bz, bd := make([]byte, n), make([]byte, n)
				want[0], want[1] = zero.Read(mem.PhysAddr(a), bz)
				got[0], got[1] = dirty.Read(mem.PhysAddr(a), bd)
				if !bytes.Equal(bz, bd) {
					t.Fatalf("%v step %d %s: read %x, zeroed store read %x", policy, step, desc, bd, bz)
				}
				unfilled := 0
				for _, l := range spanned(a, n) {
					if !filled[l] {
						unfilled++
					}
					filled[l] = true
				}
				if got[1] < unfilled {
					t.Fatalf("%v step %d %s: %d misses, but %d of its lines were not filled", policy, step, desc, got[1], unfilled)
				}
			case 3, 4:
				src := make([]byte, n)
				rng.Read(src)
				desc = fmt.Sprintf("Write(%d, [%d])", a, n)
				want[0], want[1] = zero.Write(mem.PhysAddr(a), src)
				got[0], got[1] = dirty.Write(mem.PhysAddr(a), src)
			case 5:
				src := make([]byte, n)
				rng.Read(src)
				desc = fmt.Sprintf("DMAWrite(%d, [%d])", a, n)
				zero.DMAWrite(mem.PhysAddr(a), src)
				dirty.DMAWrite(mem.PhysAddr(a), src)
			case 6:
				desc = fmt.Sprintf("Invalidate(%d, %d)", a, n)
				want[0] = zero.Invalidate(mem.PhysAddr(a), n)
				got[0] = dirty.Invalidate(mem.PhysAddr(a), n)
				for _, l := range spanned(a, n) {
					delete(filled, l)
				}
			default:
				if rng.Intn(8) > 0 {
					continue // flush rarely, so that lines live long enough to go stale
				}
				desc = "flush"
				clear(zero.tags)
				clear(dirty.tags)
				clear(filled)
			}
			if got != want || dirty.Stats() != zero.Stats() {
				t.Fatalf("%v step %d %s: returned %v with stats %+v, zeroed store %v with %+v",
					policy, step, desc, got, dirty.Stats(), want, zero.Stats())
			}
		}
		if st := zero.Stats(); st.ReadMisses == 0 || st.ReadHits == 0 || st.WriteHits == 0 || (policy == Incoherent && st.StaleReads == 0) {
			t.Errorf("%v: sequence too tame: %+v", policy, st)
		}
	}
}
