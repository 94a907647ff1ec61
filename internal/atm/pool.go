package atm

import "fmt"

// PayloadPool is a flyweight allocator for cell-payload staging
// buffers, in the spirit of a NIC driver's mbuf pool: the hot loops
// that assemble or inspect one cell at a time borrow a fixed-size
// buffer, fill it, and return it — zero heap allocations per cell in
// steady state, with the pool growing only when the number of buffers
// simultaneously in flight exceeds everything seen before.
//
// Buffers live in fixed-size chunks that are never reallocated, so a
// *[CellPayload]byte handed out by Get stays valid (pointer-stable)
// for as long as its handle is live. Each slot carries a generation
// counter bumped on every free: a Handle kept past its Put — the
// use-after-free of pool allocators — is detected loudly instead of
// silently aliasing another cell's bytes.
//
// The pool is engine-local like every other simulation structure:
// callers on one engine own their pool exclusively, so there is no
// locking.
type PayloadPool struct {
	chunks [][]poolSlot
	free   []int32 // slot indices currently free, LIFO for cache warmth
	live   int
}

const poolChunkSlots = 64

type poolSlot struct {
	buf  [CellPayload]byte
	gen  uint32
	live bool
}

// PoolHandle names one borrowed buffer. The zero Handle is invalid.
type PoolHandle struct {
	idx int32
	gen uint32
}

// NewPayloadPool returns an empty pool; the first Get allocates the
// first chunk.
func NewPayloadPool() *PayloadPool { return &PayloadPool{} }

func (p *PayloadPool) slot(idx int32) *poolSlot {
	return &p.chunks[idx/poolChunkSlots][idx%poolChunkSlots]
}

// Get borrows a buffer, growing the pool by one chunk if none is
// free. The returned pointer is valid until Put; the handle must be
// returned exactly once.
func (p *PayloadPool) Get() (PoolHandle, *[CellPayload]byte) {
	if len(p.free) == 0 {
		base := int32(len(p.chunks) * poolChunkSlots)
		p.chunks = append(p.chunks, make([]poolSlot, poolChunkSlots))
		for i := int32(poolChunkSlots) - 1; i >= 0; i-- {
			p.free = append(p.free, base+i)
		}
	}
	idx := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	s := p.slot(idx)
	s.live = true
	p.live++
	return PoolHandle{idx: idx, gen: s.gen}, &s.buf
}

// Put returns a borrowed buffer. Returning a handle twice, or keeping
// it across a Put (stale generation), panics: both are the silent
// cell-aliasing bugs of reference-counted buffer schemes, and the
// simulation would rather die than corrupt a payload.
func (p *PayloadPool) Put(h PoolHandle) {
	if h.idx < 0 || int(h.idx) >= len(p.chunks)*poolChunkSlots {
		panic(fmt.Sprintf("atm: pool handle %d out of range", h.idx))
	}
	s := p.slot(h.idx)
	if !s.live || s.gen != h.gen {
		panic(fmt.Sprintf("atm: pool double free or stale handle (slot %d, gen %d vs %d)", h.idx, h.gen, s.gen))
	}
	s.live = false
	s.gen++
	p.live--
	p.free = append(p.free, h.idx)
}

// Bytes returns the buffer for a live handle, generation-checked.
func (p *PayloadPool) Bytes(h PoolHandle) *[CellPayload]byte {
	s := p.slot(h.idx)
	if !s.live || s.gen != h.gen {
		panic(fmt.Sprintf("atm: pool access through dead handle (slot %d)", h.idx))
	}
	return &s.buf
}

// Live reports the number of borrowed buffers — zero once every
// producer has matched its Gets with Puts, which leak tests assert.
func (p *PayloadPool) Live() int { return p.live }

// Cap reports the pool's current capacity in buffers.
func (p *PayloadPool) Cap() int { return len(p.chunks) * poolChunkSlots }
