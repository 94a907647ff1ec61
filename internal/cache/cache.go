// Package cache models a host CPU data cache.
//
// The model reproduces the two behaviours the paper depends on (§2.3,
// §2.7):
//
//   - On the DECstation 5000/200, DMA transfers into main memory do NOT
//     update or invalidate the data cache, so CPU reads of DMA'd buffers
//     can return stale data unless the driver explicitly invalidates —
//     at roughly one CPU cycle per 32-bit word.
//   - On the DEC 3000 AXP, DMA writes update the (second-level) cache,
//     so no software invalidation is needed.
//
// The cache holds real copies of line data, so stale reads return
// genuinely stale bytes: a driver that skips a required invalidation
// produces payload corruption that checksums (and tests) catch, exactly
// as the paper's lazy-invalidation scheme intends.
package cache

import (
	"fmt"
	"runtime"
	"unsafe"

	"repro/internal/mem"
)

// CoherencePolicy selects how the cache interacts with DMA writes.
type CoherencePolicy int

const (
	// Incoherent: DMA writes bypass the cache entirely; previously cached
	// lines for the written range silently go stale (DECstation 5000/200).
	Incoherent CoherencePolicy = iota
	// DMAUpdate: DMA writes update matching cache lines in place
	// (DEC 3000 AXP behaviour).
	DMAUpdate
)

func (p CoherencePolicy) String() string {
	switch p {
	case Incoherent:
		return "incoherent"
	case DMAUpdate:
		return "dma-update"
	default:
		return fmt.Sprintf("CoherencePolicy(%d)", int(p))
	}
}

// Stats counts cache activity, in lines except where noted.
type Stats struct {
	ReadHits         int64
	ReadMisses       int64
	WriteHits        int64
	WriteMisses      int64
	StaleReads       int64 // read hits whose cached copy differed from memory
	InvalidatedWords int64 // 32-bit words explicitly invalidated (cost: ~1 cycle each)
}

// Cache is a direct-mapped, write-through, no-write-allocate data cache —
// the organization of the DECstation 5000/200's 64 KB D-cache.
//
// Its line store and tag array come from mem.Backing: anonymous
// mappings on unix, so the 2 MB store and 256 KB of tags of a DEC 3000
// cache cost nothing to build, and a page of either only when a line in
// it is first filled. A slot is read only while its line is valid,
// which means after a fill, so what the store held before is never
// seen. The zero tag marks an invalid slot, so the zero-filled tag
// array starts with every line invalid.
type Cache struct {
	mem      *mem.Memory
	policy   CoherencePolicy
	lineSize int
	nLines   int
	tags     []uint32           // tagOf(line address) of the cached line; 0 when invalid
	data     []byte             // nLines * lineSize line store
	unmap    func([]byte) error // returns data and tags to the OS; nil when the Go heap holds them
	stats    Stats
}

// tagOf is the tag of the line at lineAddr. Lines are an even number of
// bytes long, so the low bit of a line address is free to mark the slot
// valid, and physical line 0 still has a nonzero tag.
func tagOf(lineAddr uint32) uint32 { return lineAddr | 1 }

// hit reports whether slot idx holds the line at lineAddr.
func (c *Cache) hit(idx int, lineAddr uint32) bool { return c.tags[idx] == tagOf(lineAddr) }

// Config configures a Cache.
type Config struct {
	Size     int // total bytes (default 64 KB)
	LineSize int // bytes per line (default 16)
	Policy   CoherencePolicy
}

// New returns a cache over physical memory m.
func New(m *mem.Memory, cfg Config) *Cache {
	if cfg.Size == 0 {
		cfg.Size = 64 * 1024
	}
	if cfg.LineSize == 0 {
		cfg.LineSize = 16
	}
	if cfg.Size%cfg.LineSize != 0 {
		panic("cache: size not a multiple of line size")
	}
	data, unmap := mem.Backing(cfg.Size)
	tags, _ := mem.Backing(4 * (cfg.Size / cfg.LineSize))
	c := newWithStore(m, cfg, data, unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(tags))), len(tags)/4))
	c.unmap = unmap
	if unmap != nil {
		runtime.SetFinalizer(c, (*Cache).Release) // a backstop for an owner that never calls Release
	}
	return c
}

// newWithStore builds a cache of cfg's (defaulted) geometry over the line
// store data, which must hold cfg.Size bytes of any content, and the
// zeroed tag array tags, one per line.
func newWithStore(m *mem.Memory, cfg Config, data []byte, tags []uint32) *Cache {
	if cfg.LineSize%2 != 0 {
		panic("cache: odd line size")
	}
	return &Cache{
		mem:      m,
		policy:   cfg.Policy,
		lineSize: cfg.LineSize,
		nLines:   cfg.Size / cfg.LineSize,
		tags:     tags,
		data:     data,
	}
}

// Release returns the line store and the tags to the OS. Any later
// access panics, as they are gone. Calling it again does nothing.
func (c *Cache) Release() {
	data, tags, unmap := c.data, c.tags, c.unmap
	// The fields go first, so that a use after release fails a bounds
	// check instead of faulting on an unmapped page.
	c.data, c.tags, c.unmap = nil, nil, nil
	runtime.SetFinalizer(c, nil)
	if unmap == nil {
		return
	}
	if err := unmap(data); err != nil {
		panic(fmt.Sprintf("cache: releasing the line store: %v", err))
	}
	if err := unmap(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(tags))), 4*len(tags))); err != nil {
		panic(fmt.Sprintf("cache: releasing the tags: %v", err))
	}
}

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int { return c.lineSize }

// Size returns the total cache size in bytes.
func (c *Cache) Size() int { return c.nLines * c.lineSize }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics.
func (c *Cache) ResetStats() { c.stats = Stats{} }

func (c *Cache) index(lineAddr uint32) int { return int(lineAddr/uint32(c.lineSize)) % c.nLines }

func (c *Cache) lineSlot(idx int) []byte {
	return c.data[idx*c.lineSize : (idx+1)*c.lineSize]
}

// Read copies len(dst) bytes from physical address pa through the cache,
// returning the number of line hits and misses. A hit whose cached copy
// differs from memory is counted as a stale read and returns the STALE
// bytes — the caller sees exactly what the real CPU would have seen.
func (c *Cache) Read(pa mem.PhysAddr, dst []byte) (hits, misses int) {
	a := uint32(pa)
	off := 0
	for off < len(dst) {
		lineAddr := a - a%uint32(c.lineSize)
		idx := c.index(lineAddr)
		within := int(a - lineAddr)
		n := c.lineSize - within
		if n > len(dst)-off {
			n = len(dst) - off
		}
		if c.hit(idx, lineAddr) {
			hits++
			c.stats.ReadHits++
			cached := c.lineSlot(idx)
			if !c.mem.Equal(mem.PhysAddr(lineAddr), cached) {
				c.stats.StaleReads++
			}
			copy(dst[off:off+n], cached[within:within+n])
		} else {
			misses++
			c.stats.ReadMisses++
			c.tags[idx] = tagOf(lineAddr)
			c.mem.ReadInto(mem.PhysAddr(lineAddr), c.lineSlot(idx))
			copy(dst[off:off+n], c.lineSlot(idx)[within:within+n])
		}
		a += uint32(n)
		off += n
	}
	return hits, misses
}

// Write copies src to physical address pa write-through: memory is always
// updated; a matching cached line is updated in place (write hit); on a
// write miss no line is allocated.
func (c *Cache) Write(pa mem.PhysAddr, src []byte) (hits, misses int) {
	c.mem.Write(pa, src)
	hits, misses = c.update(pa, src)
	c.stats.WriteHits += int64(hits)
	c.stats.WriteMisses += int64(misses)
	return hits, misses
}

// DMAWrite delivers a DMA transfer into main memory. Under Incoherent it
// leaves any cached lines covering the range stale; under DMAUpdate it
// refreshes them.
func (c *Cache) DMAWrite(pa mem.PhysAddr, src []byte) {
	c.mem.Write(pa, src)
	if c.policy == DMAUpdate {
		c.update(pa, src)
	}
}

// update copies src, just written to memory at pa, into the cached
// lines it overlaps, counting the lines it found and those it did not.
func (c *Cache) update(pa mem.PhysAddr, src []byte) (hits, misses int) {
	a := uint32(pa)
	for off := 0; off < len(src); {
		lineAddr := a - a%uint32(c.lineSize)
		idx := c.index(lineAddr)
		within := int(a - lineAddr)
		n := min(c.lineSize-within, len(src)-off)
		if c.hit(idx, lineAddr) {
			hits++
			copy(c.lineSlot(idx)[within:within+n], src[off:off+n])
		} else {
			misses++
		}
		a += uint32(n)
		off += n
	}
	return hits, misses
}

// Invalidate drops any cached lines overlapping [pa, pa+n) and returns
// the number of 32-bit words invalidated; the paper prices a partial
// invalidation at about one CPU cycle per word (§2.3).
func (c *Cache) Invalidate(pa mem.PhysAddr, n int) (words int) {
	a := uint32(pa)
	end := a + uint32(n)
	for lineAddr := a - a%uint32(c.lineSize); lineAddr < end; lineAddr += uint32(c.lineSize) {
		idx := c.index(lineAddr)
		if c.hit(idx, lineAddr) {
			c.tags[idx] = 0
		}
	}
	// Cost is charged per word of the *range*, whether or not each word
	// was resident: the invalidation loop must visit every word.
	words = (n + 3) / 4
	c.stats.InvalidatedWords += int64(words)
	return words
}

// StaleLines reports how many cached lines overlapping [pa, pa+n) differ
// from memory — a diagnostic for the lazy-invalidation experiment.
func (c *Cache) StaleLines(pa mem.PhysAddr, n int) int {
	a := uint32(pa)
	end := a + uint32(n)
	stale := 0
	for lineAddr := a - a%uint32(c.lineSize); lineAddr < end; lineAddr += uint32(c.lineSize) {
		idx := c.index(lineAddr)
		if c.hit(idx, lineAddr) {
			if !c.mem.Equal(mem.PhysAddr(lineAddr), c.lineSlot(idx)) {
				stale++
			}
		}
	}
	return stale
}

// Resident reports whether the line containing pa is cached.
func (c *Cache) Resident(pa mem.PhysAddr) bool {
	a := uint32(pa)
	lineAddr := a - a%uint32(c.lineSize)
	idx := c.index(lineAddr)
	return c.hit(idx, lineAddr)
}
