// Package fbuf implements fast buffers (§3.1): a high-bandwidth
// cross-domain buffer transfer and management facility.
//
// An fbuf combines page remapping and shared memory: pages that have
// been mapped into a set of protection domains are cached for reuse by
// future transfers along the same data path. Because the OSIRIS adaptor
// makes an early demultiplexing decision (the VCI identifies the path
// before any data is stored), incoming data can be placed directly into
// an fbuf that is already mapped into every domain the packet will
// traverse. Using such a *cached* fbuf instead of an *uncached* one —
// which must be mapped into each domain as it travels — is "an order of
// magnitude difference in how fast the data can be transferred across a
// domain boundary".
//
// The manager keeps preallocated cached-fbuf pools for the most
// recently used paths (16 by default, §3.1) on an intrusive LRU list:
// touching a path on allocation is O(1), and when path churn exceeds
// the capacity the list tail is evicted in O(1). Eviction *demotes* the
// pool's fbufs: every non-producer mapping is removed from the page
// tables immediately — a stale access faults, it cannot read recycled
// data — while the shootdown cost is charged lazily to the next fbuf
// operation, the way deferred TLB invalidation batches the work.
// Outstanding fbufs of an evicted (or undefined) path demote when they
// come back through Free.
package fbuf

import (
	"fmt"
	"time"

	"repro/internal/atm"
	"repro/internal/hostsim"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// DefaultMaxCachedPaths is the number of per-path pools the manager
// keeps (§3.1: "the 16 most recently used data paths").
const DefaultMaxCachedPaths = 16

// Domain is one protection domain data may traverse: device driver,
// network server, application.
type Domain struct {
	Name  string
	Space *mem.AddressSpace
}

// NewDomain creates a protection domain with a fresh address space.
func NewDomain(h *hostsim.Host, name string) *Domain {
	return &Domain{Name: name, Space: h.Mem.NewSpace(name)}
}

// Fbuf is one fast buffer: a run of page frames plus its current set of
// domain mappings.
type Fbuf struct {
	mgr    *Manager
	frames []mem.Frame
	size   int
	vas    []mapping // in mapping order: a cached fbuf's path chain first
	path   atm.VCI   // the path whose pool owns it; 0 for uncached
	pool   *pathPool
	cached bool
}

// mapping is an fbuf's virtual address in one domain. An fbuf is mapped
// into a handful of domains at most, so a list beats a map.
type mapping struct {
	d  *Domain
	va mem.VirtAddr
}

// lookup returns the fbuf's address in d, if it is mapped there.
func (f *Fbuf) lookup(d *Domain) (mem.VirtAddr, bool) {
	for _, mp := range f.vas {
		if mp.d == d {
			return mp.va, true
		}
	}
	return 0, false
}

// Size returns the fbuf's capacity in bytes.
func (f *Fbuf) Size() int { return f.size }

// Cached reports whether the fbuf belongs to a cached per-path pool.
func (f *Fbuf) Cached() bool { return f.cached }

// MappedIn reports whether the fbuf is currently mapped in d.
func (f *Fbuf) MappedIn(d *Domain) bool {
	_, ok := f.lookup(d)
	return ok
}

// VA returns the fbuf's virtual address in domain d; the fbuf must be
// mapped there.
func (f *Fbuf) VA(d *Domain) (mem.VirtAddr, error) {
	va, ok := f.lookup(d)
	if !ok {
		return 0, fmt.Errorf("fbuf: not mapped in domain %s", d.Name)
	}
	return va, nil
}

// Write stores data into the fbuf through domain d's mapping.
func (f *Fbuf) Write(d *Domain, off int, data []byte) error {
	va, err := f.VA(d)
	if err != nil {
		return err
	}
	if off+len(data) > f.size {
		return fmt.Errorf("fbuf: write [%d,%d) beyond size %d", off, off+len(data), f.size)
	}
	return d.Space.WriteVirt(va+mem.VirtAddr(off), data)
}

// Read fetches n bytes from the fbuf through domain d's mapping.
func (f *Fbuf) Read(d *Domain, off, n int) ([]byte, error) {
	va, err := f.VA(d)
	if err != nil {
		return nil, err
	}
	if off+n > f.size {
		return nil, fmt.Errorf("fbuf: read [%d,%d) beyond size %d", off, off+n, f.size)
	}
	out := make([]byte, n)
	if err := d.Space.ReadVirtInto(va+mem.VirtAddr(off), out); err != nil {
		return nil, err
	}
	return out, nil
}

// PhysBuffers returns the fbuf's physical extents (for DMA descriptors).
func (f *Fbuf) PhysBuffers() []mem.PhysBuffer {
	m := f.mgr.host.Mem
	var segs []mem.PhysBuffer
	for _, fr := range f.frames {
		pa := m.FrameAddr(fr)
		if n := len(segs); n > 0 && segs[n-1].End() == pa {
			segs[n-1].Len += m.PageSize()
		} else {
			segs = append(segs, mem.PhysBuffer{Addr: pa, Len: m.PageSize()})
		}
	}
	return segs
}

// Transfer passes the fbuf across a domain boundary. For a cached fbuf
// the pages are already mapped at both ends, so the cost is a constant
// hand-off; an uncached fbuf pays per-page mapping work on its way into
// the destination domain (§3.1).
func (f *Fbuf) Transfer(p *sim.Proc, from, to *Domain) error {
	if !f.MappedIn(from) {
		return fmt.Errorf("fbuf: transfer from %s, where it is not mapped", from.Name)
	}
	prof := f.mgr.host.Prof
	if f.MappedIn(to) {
		f.mgr.host.Compute(p, prof.FbufTransfer)
		f.mgr.stats.CachedTransfers++
		return nil
	}
	f.mgr.drainPending(p)
	f.mgr.host.Compute(p, prof.FbufTransfer+time.Duration(len(f.frames))*prof.FbufMapPerPage)
	va, err := to.Space.MapFrames(f.frames)
	if err != nil {
		return err
	}
	f.vas = append(f.vas, mapping{to, va})
	f.mgr.stats.UncachedTransfers++
	f.mgr.stats.PagesMapped += int64(len(f.frames))
	return nil
}

// Stats counts manager activity.
type Stats struct {
	CachedAllocs      int64
	CachedMisses      int64 // cached pool empty, fell back to uncached
	UncachedAllocs    int64
	CachedTransfers   int64
	UncachedTransfers int64
	PagesMapped       int64
	PathEvictions     int64
	PathUndefines     int64
	Demotions         int64 // fbufs that lost cached status (evict/undefine)
	PagesUnmapped     int64
}

type poolState int

const (
	poolLive    poolState = iota
	poolEvicted           // LRU-evicted: outstanding fbufs demote at Free
	poolDead              // undefined: outstanding fbufs are destroyed at Free
)

// pathPool is the preallocated cached-fbuf queue for one path, a node
// on the manager's intrusive LRU list (head = most recent).
type pathPool struct {
	vci        atm.VCI
	domains    []*Domain
	free       []*Fbuf
	state      poolState
	prev, next *pathPool
}

// Manager is one host's fbuf allocator.
type Manager struct {
	host     *hostsim.Host
	maxPaths int
	pools    map[atm.VCI]*pathPool
	lruHead  *pathPool
	lruTail  *pathPool
	uncached []*Fbuf
	pending  int // pages unmapped but not yet charged (lazy shootdown)
	stats    Stats
}

// NewManager returns a manager keeping up to maxPaths cached path pools
// (0 means DefaultMaxCachedPaths).
func NewManager(h *hostsim.Host, maxPaths int) *Manager {
	if maxPaths == 0 {
		maxPaths = DefaultMaxCachedPaths
	}
	return &Manager{host: h, maxPaths: maxPaths, pools: make(map[atm.VCI]*pathPool)}
}

// Stats returns a copy of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// RegisterMetrics registers the pool's counters as snapshot-time
// samples under prefix: the cached-allocation hit/miss split is the
// §3.3 number that decides whether the fbuf cache is earning its
// keep. A nil registry is a no-op.
func (m *Manager) RegisterMetrics(r *metrics.Registry, prefix string) {
	if r == nil {
		return
	}
	s := &m.stats
	r.Sample(prefix+"/cached_allocs", metrics.KindCounter, func() int64 { return s.CachedAllocs })
	r.Sample(prefix+"/cached_misses", metrics.KindCounter, func() int64 { return s.CachedMisses })
	r.Sample(prefix+"/uncached_allocs", metrics.KindCounter, func() int64 { return s.UncachedAllocs })
	r.Sample(prefix+"/cached_transfers", metrics.KindCounter, func() int64 { return s.CachedTransfers })
	r.Sample(prefix+"/uncached_transfers", metrics.KindCounter, func() int64 { return s.UncachedTransfers })
	r.Sample(prefix+"/pages_mapped", metrics.KindCounter, func() int64 { return s.PagesMapped })
	r.Sample(prefix+"/path_evictions", metrics.KindCounter, func() int64 { return s.PathEvictions })
}

// RegisterChurnMetrics registers the churn-plane family — demotions,
// unmapped pages, undefines, and the live-pool gauge — as a separate,
// caller-gated set (the AdaptiveMetrics idiom), so legacy snapshots
// keep their metric name set byte-identical.
func (m *Manager) RegisterChurnMetrics(r *metrics.Registry, prefix string) {
	if r == nil {
		return
	}
	s := &m.stats
	r.Sample(prefix+"/demotions", metrics.KindCounter, func() int64 { return s.Demotions })
	r.Sample(prefix+"/pages_unmapped", metrics.KindCounter, func() int64 { return s.PagesUnmapped })
	r.Sample(prefix+"/path_undefines", metrics.KindCounter, func() int64 { return s.PathUndefines })
	r.Sample(prefix+"/cached_paths", metrics.KindGauge, func() int64 { return int64(len(m.pools)) })
}

// CachedPaths returns the number of live per-path pools.
func (m *Manager) CachedPaths() int { return len(m.pools) }

// PathDefined reports whether vci's cached pool is currently live — it
// may have been LRU-evicted since DefinePath, so churning callers check
// before UndefinePath.
func (m *Manager) PathDefined(vci atm.VCI) bool {
	_, ok := m.pools[vci]
	return ok
}

// lruUnlink removes pool from the recency list.
func (m *Manager) lruUnlink(pool *pathPool) {
	if pool.prev != nil {
		pool.prev.next = pool.next
	} else {
		m.lruHead = pool.next
	}
	if pool.next != nil {
		pool.next.prev = pool.prev
	} else {
		m.lruTail = pool.prev
	}
	pool.prev, pool.next = nil, nil
}

// lruPushFront makes pool the most recently used.
func (m *Manager) lruPushFront(pool *pathPool) {
	pool.next = m.lruHead
	if m.lruHead != nil {
		m.lruHead.prev = pool
	}
	m.lruHead = pool
	if m.lruTail == nil {
		m.lruTail = pool
	}
}

// touch refreshes pool's recency in O(1).
func (m *Manager) touch(pool *pathPool) {
	if m.lruHead == pool {
		return
	}
	m.lruUnlink(pool)
	m.lruPushFront(pool)
}

// drainPending charges the accumulated lazy-unmap (TLB shootdown) cost
// to p. Called at the head of every operation that already pays mapping
// work, so demotion costs batch instead of landing on the evictor.
func (m *Manager) drainPending(p *sim.Proc) {
	if m.pending == 0 {
		return
	}
	m.host.Compute(p, time.Duration(m.pending)*m.host.Prof.FbufMapPerPage)
	m.pending = 0
}

// unmapFrom removes d's mapping of f, page by page. A missing page
// table entry here is a double unmap — a manager invariant violation —
// and panics.
func (m *Manager) unmapFrom(f *Fbuf, d *Domain, va mem.VirtAddr) {
	vpn := d.Space.VPN(va)
	for j := range f.frames {
		if _, err := d.Space.Unmap(vpn + uint32(j)); err != nil {
			panic("fbuf: double unmap: " + err.Error())
		}
	}
	m.pending += len(f.frames)
	m.stats.PagesUnmapped += int64(len(f.frames))
}

// demote strips an fbuf of its cached status: every mapping except the
// producer's (the path's first domain) is torn out of the page tables,
// in mapping order, and the fbuf joins the uncached pool.
func (m *Manager) demote(f *Fbuf) {
	keep := f.pool.domains[0]
	kept := f.vas[:0]
	for _, mp := range f.vas {
		if mp.d == keep {
			kept = append(kept, mp)
			continue
		}
		m.unmapFrom(f, mp.d, mp.va)
	}
	clear(f.vas[len(kept):])
	f.vas = kept
	f.cached = false
	f.path = 0
	f.pool = nil
	m.stats.Demotions++
	m.uncached = append(m.uncached, f)
}

// destroy unmaps an fbuf everywhere and returns its frames to the host.
func (m *Manager) destroy(f *Fbuf) {
	for _, mp := range f.vas {
		m.unmapFrom(f, mp.d, mp.va)
	}
	f.vas = nil
	for _, fr := range f.frames {
		m.host.Mem.FreeFrame(fr)
	}
	f.frames = nil
	f.pool = nil
	f.cached = false
}

// newFbuf allocates an fbuf of at least size bytes, mapped nowhere yet,
// with room for mappings into domains domains.
func (m *Manager) newFbuf(size, domains int) (*Fbuf, error) {
	ps := m.host.Mem.PageSize()
	pages := (size + ps - 1) / ps
	frames := make([]mem.Frame, 0, pages)
	for i := 0; i < pages; i++ {
		f, err := m.host.Mem.AllocFrame()
		if err != nil {
			for _, fr := range frames {
				m.host.Mem.FreeFrame(fr)
			}
			return nil, err
		}
		frames = append(frames, f)
	}
	return &Fbuf{
		mgr:    m,
		frames: frames,
		size:   pages * ps,
		vas:    make([]mapping, 0, domains),
	}, nil
}

// DefinePath preallocates a pool of count cached fbufs of the given
// size for the path identified by vci, mapped up-front into every
// domain in the path's chain. If the pool budget is exceeded the least
// recently used path is evicted (its fbufs are demoted). Setup cost
// (the mapping work) is charged to p — it happens at connection
// establishment, off the data path. On failure nothing is retained:
// partially built fbufs are destroyed.
func (m *Manager) DefinePath(p *sim.Proc, vci atm.VCI, domains []*Domain, count, size int) error {
	if len(domains) == 0 {
		return fmt.Errorf("fbuf: path needs at least one domain")
	}
	if _, dup := m.pools[vci]; dup {
		return fmt.Errorf("fbuf: path for VCI %d already defined", vci)
	}
	m.drainPending(p)
	if len(m.pools) >= m.maxPaths {
		m.evictLRU()
	}
	pool := &pathPool{vci: vci, domains: domains}
	fail := func(err error) error {
		for _, f := range pool.free {
			m.destroy(f)
		}
		return err
	}
	for i := 0; i < count; i++ {
		f, err := m.newFbuf(size, len(domains))
		if err != nil {
			return fail(err)
		}
		f.cached = true
		f.path = vci
		f.pool = pool
		pool.free = append(pool.free, f)
		for _, d := range domains {
			va, err := d.Space.MapFrames(f.frames)
			if err != nil {
				return fail(err)
			}
			f.vas = append(f.vas, mapping{d, va})
			m.host.Compute(p, time.Duration(len(f.frames))*m.host.Prof.FbufMapPerPage)
		}
	}
	m.pools[vci] = pool
	m.lruPushFront(pool)
	return nil
}

// UndefinePath tears a path down at connection close: pooled fbufs are
// unmapped everywhere and their frames freed; fbufs still in flight are
// destroyed when they come back through Free. Churning tenants call
// this so open/close cycles cannot grow the cache without bound.
func (m *Manager) UndefinePath(p *sim.Proc, vci atm.VCI) error {
	pool, ok := m.pools[vci]
	if !ok {
		return fmt.Errorf("fbuf: path for VCI %d not defined", vci)
	}
	delete(m.pools, vci)
	m.lruUnlink(pool)
	pool.state = poolDead
	for _, f := range pool.free {
		m.destroy(f)
	}
	pool.free = nil
	m.stats.PathUndefines++
	m.drainPending(p)
	return nil
}

// evictLRU drops the least recently used path pool in O(1): the pool
// leaves the cache and its pooled fbufs are demoted. The page-table
// state changes now (stale mappings must not stay readable); the
// shootdown cost is charged lazily via drainPending.
func (m *Manager) evictLRU() {
	victim := m.lruTail
	if victim == nil {
		return
	}
	m.lruUnlink(victim)
	delete(m.pools, victim.vci)
	victim.state = poolEvicted
	m.stats.PathEvictions++
	for _, f := range victim.free {
		m.demote(f)
	}
	victim.free = nil
}

// Alloc returns an fbuf for the given path: a cached one when the
// path's pool has any ("the data path ... must be determined by the
// adaptor so that it can be stored in an appropriate buffer"),
// otherwise an uncached fbuf mapped only into origin. A cached hit is
// O(1) including the LRU touch.
func (m *Manager) Alloc(p *sim.Proc, vci atm.VCI, origin *Domain, size int) (*Fbuf, error) {
	if pool, ok := m.pools[vci]; ok {
		m.touch(pool)
		if n := len(pool.free); n > 0 {
			f := pool.free[n-1]
			pool.free = pool.free[:n-1]
			m.stats.CachedAllocs++
			return f, nil
		}
		m.stats.CachedMisses++
	}
	return m.AllocUncached(p, origin, size)
}

// AllocUncached returns an fbuf from the uncached pool (or a fresh one),
// mapped only into origin.
func (m *Manager) AllocUncached(p *sim.Proc, origin *Domain, size int) (*Fbuf, error) {
	m.stats.UncachedAllocs++
	m.drainPending(p)
	for i, f := range m.uncached {
		if f.size >= size {
			m.uncached = append(m.uncached[:i], m.uncached[i+1:]...)
			if !f.MappedIn(origin) {
				va, err := origin.Space.MapFrames(f.frames)
				if err != nil {
					return nil, err
				}
				f.vas = append(f.vas, mapping{origin, va})
				m.host.Compute(p, time.Duration(len(f.frames))*m.host.Prof.FbufMapPerPage)
			}
			return f, nil
		}
	}
	f, err := m.newFbuf(size, 1)
	if err != nil {
		return nil, err
	}
	va, err := origin.Space.MapFrames(f.frames)
	if err != nil {
		return nil, err
	}
	f.vas = append(f.vas, mapping{origin, va})
	m.host.Compute(p, time.Duration(len(f.frames))*m.host.Prof.FbufMapPerPage)
	return f, nil
}

// Free returns an fbuf to its pool: cached fbufs rejoin their path's
// pool with mappings intact (that is the whole point); uncached ones go
// to the shared pool. An outstanding fbuf whose path was evicted while
// it was in flight demotes here; one whose path was undefined is
// destroyed.
func (m *Manager) Free(f *Fbuf) {
	if f.cached {
		switch f.pool.state {
		case poolLive:
			f.pool.free = append(f.pool.free, f)
		case poolEvicted:
			m.demote(f)
		case poolDead:
			m.destroy(f)
		}
		return
	}
	m.uncached = append(m.uncached, f)
}

// CopyTransfer models the traditional alternative: copying the data
// across the boundary instead of remapping. Returned for benchmarking
// (§3.1's implicit baseline).
func (m *Manager) CopyTransfer(p *sim.Proc, pages int) {
	m.host.Compute(p, time.Duration(pages)*m.host.Prof.CopyPerPage)
}
