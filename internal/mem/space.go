package mem

import (
	"fmt"
	"sort"
)

// AddressSpace is one protection domain's page table: a mapping from
// virtual page numbers to physical frames. Contiguous virtual ranges
// map, in general, to scattered frames — the property at the heart of
// the paper's §2.2.
type AddressSpace struct {
	mem   *Memory
	name  string
	table map[uint32]Frame // vpn -> frame
	next  uint32           // next unassigned vpn for Alloc
}

// NewSpace returns an empty address space over m.
func (m *Memory) NewSpace(name string) *AddressSpace {
	return &AddressSpace{
		mem:   m,
		name:  name,
		table: make(map[uint32]Frame),
		next:  1, // leave virtual page 0 unmapped so address 0 faults
	}
}

// Name returns the space's name.
func (s *AddressSpace) Name() string { return s.name }

// Memory returns the physical memory backing the space.
func (s *AddressSpace) Memory() *Memory { return s.mem }

func (s *AddressSpace) pageSize() uint32 { return uint32(s.mem.pageSize) }

// Map installs frame f at virtual page vpn. Mapping over an existing
// entry is an error (unmap first); shared memory is expressed by mapping
// the same frame into several spaces.
func (s *AddressSpace) Map(vpn uint32, f Frame) error {
	if _, ok := s.table[vpn]; ok {
		return fmt.Errorf("mem: %s: vpn %d already mapped", s.name, vpn)
	}
	s.table[vpn] = f
	return nil
}

// Unmap removes the mapping at vpn and returns the frame that was there.
func (s *AddressSpace) Unmap(vpn uint32) (Frame, error) {
	f, ok := s.table[vpn]
	if !ok {
		return 0, fmt.Errorf("mem: %s: vpn %d not mapped", s.name, vpn)
	}
	delete(s.table, vpn)
	return f, nil
}

// Mapped reports whether vpn has a mapping and, if so, to which frame.
func (s *AddressSpace) Mapped(vpn uint32) (Frame, bool) {
	f, ok := s.table[vpn]
	return f, ok
}

// VPN returns the virtual page number containing va.
func (s *AddressSpace) VPN(va VirtAddr) uint32 { return uint32(va) / s.pageSize() }

// PageOffset returns va's offset within its page.
func (s *AddressSpace) PageOffset(va VirtAddr) uint32 { return uint32(va) % s.pageSize() }

// Base returns the first virtual address of page vpn.
func (s *AddressSpace) Base(vpn uint32) VirtAddr { return VirtAddr(vpn * s.pageSize()) }

// Translate returns the physical address for va, or an error if the page
// is unmapped (a simulated fault).
func (s *AddressSpace) Translate(va VirtAddr) (PhysAddr, error) {
	f, ok := s.table[s.VPN(va)]
	if !ok {
		return 0, fmt.Errorf("mem: %s: fault at va %#x", s.name, uint32(va))
	}
	return s.mem.FrameAddr(f) + PhysAddr(s.PageOffset(va)), nil
}

// Alloc allocates n bytes of virtually contiguous memory backed by
// freshly allocated (generally discontiguous) frames and returns the
// starting virtual address. Allocations are page-granular internally but
// the returned region is exactly n bytes for the caller's purposes.
func (s *AddressSpace) Alloc(n int) (VirtAddr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mem: Alloc(%d)", n)
	}
	pages := (n + int(s.pageSize()) - 1) / int(s.pageSize())
	startVPN := s.next
	for i := 0; i < pages; i++ {
		f, err := s.mem.AllocFrame()
		if err != nil {
			// Roll back partial allocation.
			for j := 0; j < i; j++ {
				if fr, err2 := s.Unmap(startVPN + uint32(j)); err2 == nil {
					s.mem.FreeFrame(fr)
				}
			}
			return 0, err
		}
		if err := s.Map(startVPN+uint32(i), f); err != nil {
			s.mem.FreeFrame(f)
			return 0, err
		}
	}
	s.next += uint32(pages)
	return s.Base(startVPN), nil
}

// AllocAligned is Alloc but guarantees the returned address is page
// aligned *plus* the given byte offset, which the driver uses to arrange
// PDU buffers that end exactly at page boundaries (§2.5.2).
func (s *AddressSpace) AllocAligned(n int, offset int) (VirtAddr, error) {
	if offset < 0 || offset >= int(s.pageSize()) {
		return 0, fmt.Errorf("mem: AllocAligned offset %d outside page", offset)
	}
	total := n + offset
	va, err := s.Alloc(total)
	if err != nil {
		return 0, err
	}
	return va + VirtAddr(offset), nil
}

// MapFrames maps the given frames at fresh consecutive virtual pages
// and returns the base virtual address — used by drivers that allocate
// physically contiguous regions themselves and need them visible in a
// space.
func (s *AddressSpace) MapFrames(frames []Frame) (VirtAddr, error) {
	startVPN := s.next
	for i, f := range frames {
		if err := s.Map(startVPN+uint32(i), f); err != nil {
			return 0, err
		}
	}
	s.next += uint32(len(frames))
	return s.Base(startVPN), nil
}

// Free releases the pages fully covered by [va, va+n) that were
// allocated with Alloc, unmapping and freeing each frame.
func (s *AddressSpace) Free(va VirtAddr, n int) error {
	first := s.VPN(va)
	last := s.VPN(va + VirtAddr(n) - 1)
	for vpn := first; vpn <= last; vpn++ {
		f, err := s.Unmap(vpn)
		if err != nil {
			return err
		}
		s.mem.FreeFrame(f)
	}
	return nil
}

// ReadVirtInto copies len(dst) bytes starting at virtual address va into
// dst, following the page table across page boundaries.
func (s *AddressSpace) ReadVirtInto(va VirtAddr, dst []byte) error {
	for len(dst) > 0 {
		pa, err := s.Translate(va)
		if err != nil {
			return err
		}
		chunk := int(s.pageSize() - s.PageOffset(va))
		if chunk > len(dst) {
			chunk = len(dst)
		}
		s.mem.ReadInto(pa, dst[:chunk])
		va += VirtAddr(chunk)
		dst = dst[chunk:]
	}
	return nil
}

// WriteVirt copies src to virtual address va, following the page table
// across page boundaries.
func (s *AddressSpace) WriteVirt(va VirtAddr, src []byte) error {
	for len(src) > 0 {
		pa, err := s.Translate(va)
		if err != nil {
			return err
		}
		chunk := int(s.pageSize() - s.PageOffset(va))
		if chunk > len(src) {
			chunk = len(src)
		}
		s.mem.Write(pa, src[:chunk])
		va += VirtAddr(chunk)
		src = src[chunk:]
	}
	return nil
}

// PhysSegments decomposes the virtual range [va, va+n) into the minimal
// list of physically contiguous buffers, merging adjacent pages whose
// frames happen to be physically adjacent. This is exactly the
// computation the OSIRIS driver performs to build descriptor chains, and
// its output length is the "number of physical buffers" the paper's
// §2.2 analysis counts.
func (s *AddressSpace) PhysSegments(va VirtAddr, n int) ([]PhysBuffer, error) {
	return s.AppendPhysSegments(nil, va, n)
}

// AppendPhysSegments is PhysSegments appending to segs (merging with its
// final entry when the physical addresses abut), so per-PDU hot paths can
// reuse a scratch slice instead of allocating a fresh one per call.
func (s *AddressSpace) AppendPhysSegments(segs []PhysBuffer, va VirtAddr, n int) ([]PhysBuffer, error) {
	for n > 0 {
		pa, err := s.Translate(va)
		if err != nil {
			return nil, err
		}
		chunk := int(s.pageSize() - s.PageOffset(va))
		if chunk > n {
			chunk = n
		}
		if len(segs) > 0 && segs[len(segs)-1].End() == pa {
			segs[len(segs)-1].Len += chunk
		} else {
			segs = append(segs, PhysBuffer{Addr: pa, Len: chunk})
		}
		va += VirtAddr(chunk)
		n -= chunk
	}
	return segs, nil
}

// WireRange wires every frame backing [va, va+n).
func (s *AddressSpace) WireRange(va VirtAddr, n int) error {
	return s.eachFrame(va, n, func(f Frame) { s.mem.Wire(f) })
}

// UnwireRange unwires every frame backing [va, va+n).
func (s *AddressSpace) UnwireRange(va VirtAddr, n int) error {
	return s.eachFrame(va, n, func(f Frame) { s.mem.Unwire(f) })
}

func (s *AddressSpace) eachFrame(va VirtAddr, n int, fn func(Frame)) error {
	first := s.VPN(va)
	last := s.VPN(va + VirtAddr(n) - 1)
	for vpn := first; vpn <= last; vpn++ {
		f, ok := s.table[vpn]
		if !ok {
			return fmt.Errorf("mem: %s: vpn %d not mapped", s.name, vpn)
		}
		fn(f)
	}
	return nil
}

// MappedVPNs returns the sorted list of mapped virtual page numbers,
// mainly for tests and diagnostics.
func (s *AddressSpace) MappedVPNs() []uint32 {
	out := make([]uint32, 0, len(s.table))
	for vpn := range s.table {
		out = append(out, vpn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
