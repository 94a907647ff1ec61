// Package mem models the host's main memory and virtual memory system.
//
// It provides the three properties the paper's driver engineering depends
// on (§2.2, §2.4):
//
//   - physical frames holding real bytes, addressed by physical address,
//     which simulated DMA engines read and write directly;
//   - a page-based virtual memory system whose allocator hands out
//     physically *non-contiguous* frames for contiguous virtual ranges —
//     the root cause of physical buffer fragmentation;
//   - page wiring (pinning), with reclamation refusing to touch wired
//     frames, so drivers must wire pages before queueing them for DMA.
package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
)

// PhysAddr is a physical byte address.
type PhysAddr uint32

// VirtAddr is a virtual byte address within one address space.
type VirtAddr uint32

// Frame identifies a physical page frame.
type Frame uint32

// PhysBuffer describes a physically contiguous run of bytes — the unit
// of data exchanged between host driver software and the on-board
// processors (§2.2).
type PhysBuffer struct {
	Addr PhysAddr
	Len  int
}

// End returns the physical address one past the buffer.
func (b PhysBuffer) End() PhysAddr { return b.Addr + PhysAddr(b.Len) }

// Memory is the host's physical memory.
type Memory struct {
	pageSize int
	data     []byte
	unmap    func([]byte) error // returns data to the OS; nil when the Go heap holds it
	wired    []int              // wire count per frame
	owned    []bool             // frame currently allocated
	// free lists every frame not owned, plus stale entries: frames
	// AllocContiguous took without unlisting them. Each entry appears
	// once, and stale counts the owned ones. Dropping the stale entries
	// leaves the free list an eager allocator would hold, in its order.
	free     []Frame
	stale    int
	low      Frame // every frame below low is owned
	rng      *rand.Rand
	scramble bool
}

// Config configures a Memory.
type Config struct {
	PageSize int   // bytes per page frame (default 4096)
	Pages    int   // number of frames (default 4096 → 16 MB at 4 KB pages)
	Seed     int64 // seed for the fragmenting allocation order
	// Sequential disables free-list scrambling, so successive allocations
	// tend to be physically contiguous. Real systems approach this state
	// only right after boot; the default (false) models the steady-state
	// fragmented free list that §2.2 describes.
	Sequential bool
}

// New returns a Memory configured by cfg. On unix its bytes come from
// an anonymous mapping, so the kernel supplies zero pages on first touch
// and building a host costs nothing per byte; Release returns them.
func New(cfg Config) *Memory {
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	if cfg.Pages == 0 {
		cfg.Pages = 4096
	}
	if cfg.PageSize&(cfg.PageSize-1) != 0 {
		panic("mem: page size must be a power of two")
	}
	data, unmap := Backing(cfg.PageSize * cfg.Pages)
	m := newMemory(cfg, data)
	m.unmap = unmap
	if unmap != nil {
		runtime.SetFinalizer(m, (*Memory).Release) // a backstop for an owner that never calls Release
	}
	return m
}

// newMemory builds a Memory of cfg's (defaulted) geometry over data,
// which must hold PageSize*Pages zero bytes.
func newMemory(cfg Config, data []byte) *Memory {
	m := &Memory{
		pageSize: cfg.PageSize,
		data:     data,
		wired:    make([]int, cfg.Pages),
		owned:    make([]bool, cfg.Pages),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		scramble: !cfg.Sequential,
	}
	m.free = make([]Frame, cfg.Pages)
	for i := range m.free {
		m.free[i] = Frame(i)
	}
	if m.scramble {
		m.rng.Shuffle(len(m.free), func(i, j int) { m.free[i], m.free[j] = m.free[j], m.free[i] })
	}
	return m
}

// Release returns the physical memory to the OS. Any later access
// panics with the out-of-range message, as the bytes are gone. Calling
// it again does nothing.
func (m *Memory) Release() {
	data, unmap := m.data, m.unmap
	// data goes first, so that a use after release fails the bounds
	// check instead of faulting on an unmapped page.
	m.data, m.unmap = nil, nil
	runtime.SetFinalizer(m, nil)
	if unmap != nil {
		if err := unmap(data); err != nil {
			panic(fmt.Sprintf("mem: releasing physical memory: %v", err))
		}
	}
}

// PageSize returns the frame size in bytes.
func (m *Memory) PageSize() int { return m.pageSize }

// Pages returns the total number of frames.
func (m *Memory) Pages() int { return len(m.wired) }

// FreePages returns the number of unallocated frames.
func (m *Memory) FreePages() int { return len(m.free) - m.stale }

// FrameAddr returns the physical address of the first byte of f.
func (m *Memory) FrameAddr(f Frame) PhysAddr { return PhysAddr(int(f) * m.pageSize) }

// FrameOf returns the frame containing physical address a.
func (m *Memory) FrameOf(a PhysAddr) Frame { return Frame(int(a) / m.pageSize) }

// AllocFrame allocates one frame. The allocation order is deliberately
// scrambled (unless configured Sequential) so that frames backing a
// contiguous virtual range are rarely physically adjacent.
func (m *Memory) AllocFrame() (Frame, error) {
	for len(m.free) > 0 && m.owned[m.free[len(m.free)-1]] {
		m.free = m.free[:len(m.free)-1]
		m.stale--
	}
	if len(m.free) == 0 {
		return 0, fmt.Errorf("mem: out of physical memory")
	}
	f := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.owned[f] = true
	return f, nil
}

// AllocContiguous makes a best-effort attempt to allocate n physically
// contiguous frames (the OS support the paper reports experimenting with
// in §2.2). It scans for the lowest-addressed run of n frames that are
// not owned; if none exists it fails rather than falling back, so
// callers can implement their own fallback policy. The run's frames stay
// on the free list as stale entries, so the call costs O(n) beyond the
// scan rather than a pass over the whole list.
func (m *Memory) AllocContiguous(n int) ([]Frame, error) {
	frames, err := m.AppendContiguous(nil, n)
	if err != nil {
		return nil, err
	}
	return frames, nil
}

// AppendContiguous is AllocContiguous appending the run's frames to
// dst, so a caller can carve runs into storage it reuses. On failure
// it returns dst unchanged.
func (m *Memory) AppendContiguous(dst []Frame, n int) ([]Frame, error) {
	if n <= 0 {
		return dst, fmt.Errorf("mem: AllocContiguous(%d)", n)
	}
	for int(m.low) < m.Pages() && m.owned[m.low] {
		m.low++
	}
	run := 0
	for i := int(m.low); i < m.Pages(); i++ {
		if !m.owned[i] {
			run++
		} else {
			run = 0
		}
		if run == n {
			start := i - n + 1
			if cap(dst)-len(dst) < n {
				dst = append(make([]Frame, 0, len(dst)+n), dst...)
			}
			for j := start; j <= i; j++ {
				dst = append(dst, Frame(j))
				m.owned[j] = true
			}
			m.stale += n
			return dst, nil
		}
	}
	return dst, fmt.Errorf("mem: no run of %d contiguous free frames", n)
}

// compact drops the stale entries from the free list, preserving the
// order of the survivors.
func (m *Memory) compact() {
	kept := m.free[:0]
	for _, f := range m.free {
		if !m.owned[f] {
			kept = append(kept, f)
		}
	}
	m.free = kept
	m.stale = 0
}

// FreeFrame returns f to the free list. Freeing a wired frame panics:
// it is a driver bug the simulation should surface loudly.
func (m *Memory) FreeFrame(f Frame) {
	if !m.owned[f] {
		panic(fmt.Sprintf("mem: double free of frame %d", f))
	}
	if m.wired[f] > 0 {
		panic(fmt.Sprintf("mem: freeing wired frame %d", f))
	}
	if m.stale > 0 {
		m.compact() // else f, if still listed as stale, would be listed twice
	}
	m.owned[f] = false
	if f < m.low {
		m.low = f
	}
	if m.scramble && len(m.free) > 0 {
		// Insert at a random position to keep the free list fragmented.
		i := m.rng.Intn(len(m.free) + 1)
		m.free = append(m.free, 0)
		copy(m.free[i+1:], m.free[i:])
		m.free[i] = f
	} else {
		m.free = append(m.free, f)
	}
}

// Wire increments the wire count of frame f. A wired frame is
// ineligible for reclamation by the paging daemon (§2.4).
func (m *Memory) Wire(f Frame) { m.wired[f]++ }

// Unwire decrements the wire count of frame f.
func (m *Memory) Unwire(f Frame) {
	if m.wired[f] == 0 {
		panic(fmt.Sprintf("mem: unwire of unwired frame %d", f))
	}
	m.wired[f]--
}

// Wired reports whether frame f has a non-zero wire count.
func (m *Memory) Wired(f Frame) bool { return m.wired[f] > 0 }

// Reclaim simulates the paging daemon evicting a frame. It fails on a
// wired frame; on an unwired frame it scribbles over the contents
// (making any DMA into it detectable as corruption in tests).
func (m *Memory) Reclaim(f Frame) error {
	if m.wired[f] > 0 {
		return fmt.Errorf("mem: frame %d is wired", f)
	}
	a := m.FrameAddr(f)
	m.check(a, m.pageSize)
	page := m.data[a : int(a)+m.pageSize]
	for i := range page {
		page[i] = 0xDE
	}
	return nil
}

func (m *Memory) check(a PhysAddr, n int) {
	if int(a)+n > len(m.data) {
		panic(fmt.Sprintf("mem: access [%d,%d) beyond physical memory size %d", a, int(a)+n, len(m.data)))
	}
}

// Read copies n bytes starting at physical address a.
func (m *Memory) Read(a PhysAddr, n int) []byte {
	m.check(a, n)
	out := make([]byte, n)
	copy(out, m.data[a:int(a)+n])
	return out
}

// ReadInto copies len(dst) bytes starting at physical address a into dst.
func (m *Memory) ReadInto(a PhysAddr, dst []byte) {
	m.check(a, len(dst))
	copy(dst, m.data[a:int(a)+len(dst)])
}

// Equal reports whether the len(b) bytes starting at physical address a
// equal b, comparing in place.
func (m *Memory) Equal(a PhysAddr, b []byte) bool {
	m.check(a, len(b))
	return bytes.Equal(m.data[a:int(a)+len(b)], b)
}

// Write copies src to physical memory starting at a.
func (m *Memory) Write(a PhysAddr, src []byte) {
	m.check(a, len(src))
	copy(m.data[a:int(a)+len(src)], src)
}
