package msg

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func testSpace(seed int64) *mem.AddressSpace {
	return mem.New(mem.Config{Pages: 256, Seed: seed}).NewSpace("t")
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13 + 7)
	}
	return b
}

func TestFromBytesRoundTrip(t *testing.T) {
	s := testSpace(1)
	data := pattern(10000)
	m, err := FromBytes(s, data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 10000 {
		t.Errorf("Len = %d", m.Len())
	}
	got, err := m.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("round trip mismatch")
	}
}

func TestEmptyMessage(t *testing.T) {
	m := New()
	if m.Len() != 0 || len(m.Fragments()) != 0 {
		t.Error("empty message not empty")
	}
	b, err := m.Bytes()
	if err != nil || len(b) != 0 {
		t.Error("Bytes of empty message")
	}
	e, err := FromBytes(testSpace(1), nil)
	if err != nil || e.Len() != 0 {
		t.Error("FromBytes(nil)")
	}
}

func TestNewDropsEmptyFragments(t *testing.T) {
	s := testSpace(1)
	va, _ := s.Alloc(100)
	m := New(
		Fragment{Space: s, VA: va, Len: 0},
		Fragment{Space: s, VA: va, Len: 10},
	)
	if len(m.Fragments()) != 1 {
		t.Errorf("fragments = %d, want 1", len(m.Fragments()))
	}
}

func TestPrependHeader(t *testing.T) {
	s := testSpace(2)
	body, _ := FromBytes(s, pattern(100))
	hdrVA, _ := s.Alloc(20)
	s.WriteVirt(hdrVA, []byte("HDRHDRHDRHDRHDRHDR20"))
	m := new(Message).SetPrepend(Fragment{Space: s, VA: hdrVA, Len: 20}, body)
	if m.Len() != 120 {
		t.Errorf("Len = %d", m.Len())
	}
	got, _ := m.Bytes()
	if string(got[:20]) != "HDRHDRHDRHDRHDRHDR20" {
		t.Errorf("header = %q", got[:20])
	}
	if !bytes.Equal(got[20:], pattern(100)) {
		t.Error("body shifted")
	}
	// Original message untouched.
	if body.Len() != 100 {
		t.Error("SetPrepend mutated its source")
	}
}

func TestTrimPrefixStripsHeader(t *testing.T) {
	s := testSpace(3)
	data := pattern(500)
	m, _ := FromBytes(s, data)
	stripped := new(Message)
	if err := stripped.SetTrimPrefix(m, 100); err != nil {
		t.Fatal(err)
	}
	got, _ := stripped.Bytes()
	if !bytes.Equal(got, data[100:]) {
		t.Error("SetTrimPrefix wrong bytes")
	}
}

func TestSplitSharesMemory(t *testing.T) {
	s := testSpace(4)
	data := pattern(8192)
	m, _ := FromBytes(s, data)
	head, tail := new(Message), new(Message)
	if err := m.SplitInto(5000, head, tail); err != nil {
		t.Fatal(err)
	}
	if head.Len() != 5000 || tail.Len() != 3192 {
		t.Errorf("lens = %d/%d", head.Len(), tail.Len())
	}
	// Mutate underlying memory through the head view; tail view of the
	// same page must be unaffected, but a write in the shared region is
	// visible through the original message (zero copy).
	f := head.Fragments()[0]
	f.Space.WriteVirt(f.VA, []byte{0xFF})
	all, _ := m.Bytes()
	if all[0] != 0xFF {
		t.Error("split did not share memory with original")
	}
}

func TestSplitEdges(t *testing.T) {
	s := testSpace(5)
	m, _ := FromBytes(s, pattern(100))
	h, tl := new(Message), new(Message)
	if err := m.SplitInto(0, h, tl); err != nil || h.Len() != 0 || tl.Len() != 100 {
		t.Error("SplitInto(0) wrong")
	}
	if err := m.SplitInto(100, h, tl); err != nil || h.Len() != 100 || tl.Len() != 0 {
		t.Error("SplitInto(len) wrong")
	}
	if err := m.SplitInto(101, h, tl); err == nil || h.Len() != 100 || tl.Len() != 0 {
		t.Error("SplitInto beyond length accepted or changed its outputs")
	}
	if err := m.SplitInto(-1, h, tl); err == nil {
		t.Error("SplitInto(-1) accepted")
	}
}

func TestAppend(t *testing.T) {
	s := testSpace(6)
	a, _ := FromBytes(s, []byte("hello "))
	b, _ := FromBytes(s, []byte("world"))
	m := new(Message).SetAppend(a, b)
	got, _ := m.Bytes()
	if string(got) != "hello world" {
		t.Errorf("got %q", got)
	}
}

// TestAppendBytes: a three-fragment message spanning pages appends its
// bytes after dst's, reading straight into dst's storage — no
// allocation when dst has the capacity — and an empty message leaves
// dst as it was.
func TestAppendBytes(t *testing.T) {
	s := testSpace(8)
	hdr, _ := FromBytes(s, []byte("hdr:"))
	body, _ := FromBytes(s, pattern(9000))
	tail, _ := FromBytes(s, []byte(":end"))
	m := new(Message).SetAppend(hdr, body)
	m.SetAppend(m, tail)
	want := append(append([]byte("prefix"), "hdr:"...), append(pattern(9000), ":end"...)...)

	buf := make([]byte, 0, len(want))
	var got []byte
	if allocs := testing.AllocsPerRun(100, func() {
		got, _ = m.AppendBytes(append(buf[:0], "prefix"...))
	}); allocs != 0 {
		t.Errorf("AppendBytes into a large enough buffer: %v allocations, want 0", allocs)
	}
	if !bytes.Equal(got, want) || &got[0] != &buf[:1][0] {
		t.Error("AppendBytes did not append the message in place")
	}
	if got, _ := m.AppendBytes([]byte("prefix")); !bytes.Equal(got, want) {
		t.Error("AppendBytes into a short buffer lost bytes")
	}
	if got, _ := New().AppendBytes(buf[:3]); len(got) != 3 {
		t.Errorf("empty message appended %d bytes", len(got)-3)
	}
}

func TestPhysSegmentsHeaderPlusBody(t *testing.T) {
	// The §2.2 figure: a PDU of header + n-page body occupies about
	// n+2 physical buffers when the body is not page aligned.
	s := testSpace(7)
	body, err := FromBytesOffset(s, pattern(2*4096), 0) // ends on page boundary
	if err != nil {
		t.Fatal(err)
	}
	hdrVA, _ := s.Alloc(28)
	m := new(Message).SetPrepend(Fragment{Space: s, VA: hdrVA, Len: 28}, body)
	segs, err := m.PhysSegments()
	if err != nil {
		t.Fatal(err)
	}
	// header page + 2 body pages = 3 buffers (maybe fewer if frames
	// happen to abut, never more).
	if len(segs) > 3 {
		t.Errorf("segments = %d, want ≤ 3", len(segs))
	}
	total := 0
	for _, sg := range segs {
		total += sg.Len
	}
	if total != m.Len() {
		t.Errorf("segments cover %d bytes, want %d", total, m.Len())
	}
}

// TestFromBytesAlignedEndsAtPageBoundary: FromBytesOffset with the
// offset that leaves room for n bytes before a page boundary places the
// data so that it ends there — the §2.5.2 arrangement that lets every
// non-final buffer of a PDU align with the page-boundary-stop DMA.
func TestFromBytesAlignedEndsAtPageBoundary(t *testing.T) {
	s := testSpace(8)
	for _, n := range []int{1, 100, 4096, 5000, 12288} {
		m, err := FromBytesOffset(s, pattern(n), (4096-n%4096)%4096)
		if err != nil {
			t.Fatal(err)
		}
		f := m.Fragments()[0]
		end := uint32(f.VA) + uint32(f.Len)
		if end%4096 != 0 {
			t.Errorf("n=%d: buffer ends at offset %d, want page boundary", n, end%4096)
		}
		got, _ := m.Bytes()
		if !bytes.Equal(got, pattern(n)) {
			t.Errorf("n=%d: contents wrong", n)
		}
	}
}

func TestWireUnwire(t *testing.T) {
	m0 := mem.New(mem.Config{Pages: 32, Seed: 1})
	s := m0.NewSpace("w")
	m, _ := FromBytes(s, pattern(3*4096))
	if err := m.WireAll(); err != nil {
		t.Fatal(err)
	}
	f := m.Fragments()[0]
	fr, _ := s.Mapped(s.VPN(f.VA))
	if !m0.Wired(fr) {
		t.Error("first page not wired")
	}
	if err := m.UnwireAll(); err != nil {
		t.Fatal(err)
	}
	if m0.Wired(fr) {
		t.Error("first page still wired")
	}
}

func TestString(t *testing.T) {
	s := testSpace(9)
	m, _ := FromBytes(s, pattern(10))
	if m.String() != "msg{1 frags, 10 bytes}" {
		t.Errorf("String = %q", m.String())
	}
}

// Property: for any content and any split point, split-then-concatenate
// is identity, and PhysSegments always exactly covers the message.
func TestSplitConcatIdentityQuick(t *testing.T) {
	s := testSpace(10)
	f := func(data []byte, at uint16) bool {
		if len(data) == 0 {
			return true
		}
		m, err := FromBytes(s, data)
		if err != nil {
			return true // allocator exhausted by quick iterations; skip
		}
		n := int(at) % (len(data) + 1)
		head, tail := new(Message), new(Message)
		if err := m.SplitInto(n, head, tail); err != nil {
			return false
		}
		joined, err := tail.SetAppend(head, tail).Bytes()
		if err != nil || !bytes.Equal(joined, data) {
			return false
		}
		segs, err := m.PhysSegments()
		if err != nil {
			return false
		}
		total := 0
		for _, sg := range segs {
			total += sg.Len
		}
		return total == len(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
