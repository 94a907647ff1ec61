package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func newSpace(t *testing.T, pages int, seed int64) *AddressSpace {
	t.Helper()
	return New(Config{Pages: pages, Seed: seed}).NewSpace("test")
}

func TestAllocTranslateRoundTrip(t *testing.T) {
	s := newSpace(t, 64, 1)
	va, err := s.Alloc(3 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	if s.PageOffset(va) != 0 {
		t.Errorf("Alloc returned unaligned va %#x", uint32(va))
	}
	for off := 0; off < 3*4096; off += 4096 {
		if _, err := s.Translate(va + VirtAddr(off)); err != nil {
			t.Errorf("Translate(+%d): %v", off, err)
		}
	}
}

func TestTranslateFaultOnUnmapped(t *testing.T) {
	s := newSpace(t, 8, 1)
	if _, err := s.Translate(0); err == nil {
		t.Error("address 0 did not fault")
	}
	if _, err := s.Translate(0xFFFF0000); err == nil {
		t.Error("wild address did not fault")
	}
}

func TestVirtReadWriteAcrossPages(t *testing.T) {
	s := newSpace(t, 64, 2)
	va, err := s.Alloc(2 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Write a pattern straddling the page boundary.
	pat := make([]byte, 100)
	for i := range pat {
		pat[i] = byte(i * 3)
	}
	start := va + 4096 - 50
	if err := s.WriteVirt(start, pat); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 100)
	if err := s.ReadVirtInto(start, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pat) {
		t.Error("cross-page read != written")
	}
	// The two halves live on (generally) discontiguous frames; verify via
	// physical addresses that the data really is in two places.
	pa1, _ := s.Translate(start)
	pa2, _ := s.Translate(va + 4096)
	if !bytes.Equal(s.Memory().Read(pa1, 50), pat[:50]) {
		t.Error("first physical half wrong")
	}
	if !bytes.Equal(s.Memory().Read(pa2, 50), pat[50:]) {
		t.Error("second physical half wrong")
	}
}

func TestPhysSegmentsCountsFragments(t *testing.T) {
	// With a scrambled allocator, an n-page virtual region should
	// decompose into ~n physical segments (§2.2's premise).
	s := newSpace(t, 1024, 3)
	va, err := s.Alloc(4 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := s.PhysSegments(va, 4*4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Errorf("4-page region decomposed into %d segments; allocator too contiguous for the test premise", len(segs))
	}
	total := 0
	for _, sg := range segs {
		total += sg.Len
	}
	if total != 4*4096 {
		t.Errorf("segments cover %d bytes, want %d", total, 4*4096)
	}
}

func TestPhysSegmentsMergesAdjacentFrames(t *testing.T) {
	m := New(Config{Pages: 16, Sequential: true})
	s := m.NewSpace("seq")
	va, err := s.Alloc(2 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := s.PhysSegments(va, 2*4096)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential allocator hands out adjacent frames... but in descending
	// or ascending order depending on free-list direction. Merging only
	// happens when ascending; just check coverage and monotone merge rule.
	total := 0
	for i, sg := range segs {
		total += sg.Len
		if i > 0 && segs[i-1].End() == sg.Addr {
			t.Error("adjacent segments were not merged")
		}
	}
	if total != 2*4096 {
		t.Errorf("segments cover %d bytes", total)
	}
}

func TestPhysSegmentsSubPage(t *testing.T) {
	s := newSpace(t, 16, 1)
	va, _ := s.Alloc(4096)
	segs, err := s.PhysSegments(va+100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Len != 200 {
		t.Errorf("segs = %+v, want one 200-byte segment", segs)
	}
}

func TestAllocAligned(t *testing.T) {
	s := newSpace(t, 64, 1)
	va, err := s.AllocAligned(1000, 96)
	if err != nil {
		t.Fatal(err)
	}
	if s.PageOffset(va) != 96 {
		t.Errorf("offset = %d, want 96", s.PageOffset(va))
	}
	if _, err := s.AllocAligned(10, 4096); err == nil {
		t.Error("offset >= page size accepted")
	}
}

func TestFreeReleasesFrames(t *testing.T) {
	m := New(Config{Pages: 8, Seed: 1})
	s := m.NewSpace("x")
	before := m.FreePages()
	va, err := s.Alloc(3 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	if m.FreePages() != before-3 {
		t.Fatalf("FreePages = %d", m.FreePages())
	}
	if err := s.Free(va, 3*4096); err != nil {
		t.Fatal(err)
	}
	if m.FreePages() != before {
		t.Errorf("FreePages = %d after Free, want %d", m.FreePages(), before)
	}
	if _, err := s.Translate(va); err == nil {
		t.Error("freed page still translates")
	}
}

func TestAllocRollbackOnExhaustion(t *testing.T) {
	m := New(Config{Pages: 2, Seed: 1})
	s := m.NewSpace("x")
	if _, err := s.Alloc(3 * 4096); err == nil {
		t.Fatal("overcommit succeeded")
	}
	if m.FreePages() != 2 {
		t.Errorf("rollback leaked frames: FreePages = %d, want 2", m.FreePages())
	}
}

func TestSharedMappingSeesSameBytes(t *testing.T) {
	m := New(Config{Pages: 8, Seed: 1})
	a := m.NewSpace("a")
	b := m.NewSpace("b")
	f, _ := m.AllocFrame()
	if err := a.Map(5, f); err != nil {
		t.Fatal(err)
	}
	if err := b.Map(9, f); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteVirt(a.Base(5)+16, []byte("shared!")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 7)
	if err := b.ReadVirtInto(b.Base(9)+16, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "shared!" {
		t.Errorf("b sees %q", got)
	}
}

func TestDoubleMapRejected(t *testing.T) {
	m := New(Config{Pages: 8})
	s := m.NewSpace("x")
	f, _ := m.AllocFrame()
	if err := s.Map(3, f); err != nil {
		t.Fatal(err)
	}
	if err := s.Map(3, f); err == nil {
		t.Error("double map accepted")
	}
	if _, err := s.Unmap(4); err == nil {
		t.Error("unmap of unmapped vpn accepted")
	}
}

func TestWireRange(t *testing.T) {
	m := New(Config{Pages: 16, Seed: 1})
	s := m.NewSpace("x")
	va, _ := s.Alloc(2 * 4096)
	if err := s.WireRange(va+10, 4097); err != nil { // spans both pages
		t.Fatal(err)
	}
	for _, vpn := range []uint32{s.VPN(va), s.VPN(va) + 1} {
		f, _ := s.Mapped(vpn)
		if !m.Wired(f) {
			t.Errorf("vpn %d not wired", vpn)
		}
	}
	if err := s.UnwireRange(va+10, 4097); err != nil {
		t.Fatal(err)
	}
	f, _ := s.Mapped(s.VPN(va))
	if m.Wired(f) {
		t.Error("frame still wired after UnwireRange")
	}
}

func TestMappedVPNsSorted(t *testing.T) {
	m := New(Config{Pages: 8})
	s := m.NewSpace("x")
	for _, vpn := range []uint32{9, 2, 5} {
		f, _ := m.AllocFrame()
		s.Map(vpn, f)
	}
	got := s.MappedVPNs()
	want := []uint32{2, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MappedVPNs = %v", got)
		}
	}
}

// Property: any data written to any in-range virtual span reads back
// identically, regardless of page straddling.
func TestVirtRoundTripQuick(t *testing.T) {
	s := New(Config{Pages: 64, Seed: 9}).NewSpace("q")
	va, err := s.Alloc(8 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	f := func(data []byte, offSeed uint16) bool {
		if len(data) == 0 {
			return true
		}
		off := int(offSeed) % (8*4096 - len(data))
		if off < 0 {
			return true
		}
		if err := s.WriteVirt(va+VirtAddr(off), data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		return s.ReadVirtInto(va+VirtAddr(off), got) == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
