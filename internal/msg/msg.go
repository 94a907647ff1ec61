// Package msg provides the x-kernel style message abstraction: a chain
// of buffer fragments supporting cheap header prepend/strip and
// zero-copy splitting.
//
// Fragments are views onto simulated virtual memory, so a message built
// by an application and passed down a protocol stack arrives at the
// driver as the paper describes (§2.2): a small header fragment in one
// buffer plus a data fragment whose pages are generally not physically
// contiguous. The driver's PhysSegments is where the "physical buffer
// proliferation" the paper analyses becomes visible.
package msg

import (
	"fmt"
	"slices"

	"repro/internal/mem"
)

// Fragment is one contiguous *virtual* extent of a message.
type Fragment struct {
	Space *mem.AddressSpace
	VA    mem.VirtAddr
	Len   int
}

// Message is a sequence of fragments. The zero value is an empty message.
// The bytes themselves are never copied by message manipulation.
//
// The Set* methods and SplitInto rewrite a caller-owned Message in
// place, reusing its fragment storage, so a layer that keeps one
// Message per in-flight PDU allocates nothing in steady state; the
// receiver may also be an operand. New builds a fresh Message.
//
// Messages must not be copied by value: short fragment lists live in the
// inline array, so a copy would alias the original's storage.
type Message struct {
	frags  []Fragment
	inline [4]Fragment // in-struct storage for short fragment lists
}

// storage returns m's fragment storage emptied, with room for n
// entries: the storage m already owns when it is large enough (the
// caller may still be reading the old entries through an operand that
// is m itself), the inline array for a fresh short list, and a new
// slice otherwise.
func (m *Message) storage(n int) []Fragment {
	switch {
	case cap(m.frags) >= n:
		return m.frags[:0]
	case m.frags == nil && n <= len(m.inline):
		return m.inline[:0]
	default:
		return make([]Fragment, 0, n)
	}
}

// New builds a message from fragments (empty fragments are dropped).
func New(frags ...Fragment) *Message {
	return new(Message).SetFragments(frags...)
}

// SetFragments rebuilds m from frags (empty fragments are dropped) and
// returns m. frags may be m's own Fragments.
func (m *Message) SetFragments(frags ...Fragment) *Message {
	dst := m.storage(len(frags))
	for _, f := range frags {
		if f.Len > 0 {
			dst = append(dst, f)
		}
	}
	m.frags = dst
	return m
}

// FromBytes allocates fresh pages in space, copies data into them, and
// returns a single-fragment message. The underlying frames come from the
// fragmenting allocator, so multi-page messages are physically scattered.
func FromBytes(space *mem.AddressSpace, data []byte) (*Message, error) {
	if len(data) == 0 {
		return New(), nil
	}
	va, err := space.Alloc(len(data))
	if err != nil {
		return nil, err
	}
	if err := space.WriteVirt(va, data); err != nil {
		return nil, err
	}
	return New(Fragment{Space: space, VA: va, Len: len(data)}), nil
}

// FromBytesContiguous allocates data in *physically contiguous* frames
// on a best-effort basis — the OS support the paper reports
// experimenting with for copy-free data paths (§2.2). When no
// sufficiently long run of free frames exists it falls back to the
// ordinary fragmenting allocation; the bool result reports which
// happened.
func FromBytesContiguous(space *mem.AddressSpace, data []byte) (*Message, bool, error) {
	if len(data) == 0 {
		return New(), true, nil
	}
	m := space.Memory()
	pages := (len(data) + m.PageSize() - 1) / m.PageSize()
	frames, err := m.AllocContiguous(pages)
	if err != nil {
		msg, ferr := FromBytes(space, data)
		return msg, false, ferr
	}
	va, err := space.MapFrames(frames)
	if err != nil {
		return nil, false, err
	}
	if err := space.WriteVirt(va, data); err != nil {
		return nil, false, err
	}
	return New(Fragment{Space: space, VA: va, Len: len(data)}), true, nil
}

// FromBytesOffset is FromBytes but starts the data at the given byte
// offset within its first page — the deliberately misaligned
// application message of the §2.2 fragmentation analysis.
func FromBytesOffset(space *mem.AddressSpace, data []byte, offset int) (*Message, error) {
	if len(data) == 0 {
		return New(), nil
	}
	va, err := space.AllocAligned(len(data), offset)
	if err != nil {
		return nil, err
	}
	if err := space.WriteVirt(va, data); err != nil {
		return nil, err
	}
	return New(Fragment{Space: space, VA: va, Len: len(data)}), nil
}

// Len returns the total message length in bytes.
func (m *Message) Len() int {
	n := 0
	for _, f := range m.frags {
		n += f.Len
	}
	return n
}

// Fragments returns the fragment list (not a copy; callers must not
// mutate it).
func (m *Message) Fragments() []Fragment { return m.frags }

// SetPrepend sets m to f followed by src and returns m (an empty f is
// dropped) — the x-kernel header push operation. src may be m.
func (m *Message) SetPrepend(f Fragment, src *Message) *Message {
	if f.Len == 0 {
		return m.SetFragments(src.frags...)
	}
	n := len(src.frags)
	dst := m.storage(n + 1)[:n+1]
	copy(dst[1:], src.frags) // a memmove, so src may be m
	dst[0] = f
	m.frags = dst
	return m
}

// SetAppend sets m to the concatenation a ++ b and returns m. Either
// operand may be m.
func (m *Message) SetAppend(a, b *Message) *Message {
	na, nb := len(a.frags), len(b.frags)
	dst := m.storage(na + nb)[:na+nb]
	// b first: when b is m its entries move right, and when a is m its
	// entries stay where they are.
	copy(dst[na:], b.frags)
	copy(dst, a.frags)
	m.frags = dst
	return m
}

// SplitInto sets head to m's first n bytes and tail to the remainder,
// sharing the underlying memory (used by IP fragmentation). tail may
// be m; head must be neither m nor tail. On error neither
// changes.
func (m *Message) SplitInto(n int, head, tail *Message) error {
	if head == m || head == tail {
		panic("msg: SplitInto head aliases its source or tail")
	}
	if err := m.checkCut(n); err != nil {
		return err
	}
	nh, _ := m.splitCounts(n)
	dst := head.storage(nh)
	remaining := n
	for _, f := range m.frags[:nh] {
		f.Len = min(f.Len, remaining)
		remaining -= f.Len
		dst = append(dst, f)
	}
	head.frags = dst
	return tail.SetTrimPrefix(m, n)
}

// checkCut reports whether n is a valid cut point of m.
func (m *Message) checkCut(n int) error {
	if l := m.Len(); n < 0 || n > l {
		return fmt.Errorf("msg: split at %d of %d-byte message", n, l)
	}
	return nil
}

// splitCounts returns how many fragments a cut at n would place in the
// head and the tail (a fragment straddling the cut counts on both).
func (m *Message) splitCounts(n int) (nh, nt int) {
	remaining := n
	for _, f := range m.frags {
		switch {
		case remaining >= f.Len:
			nh++
			remaining -= f.Len
		case remaining > 0:
			nh++
			nt++
			remaining = 0
		default:
			nt++
		}
	}
	return nh, nt
}

// SetTrimPrefix sets m to src with its first n bytes removed — the
// x-kernel header strip operation. Unlike SplitInto it never
// materializes the discarded head. src may be m. On error m is
// unchanged.
func (m *Message) SetTrimPrefix(src *Message, n int) error {
	if err := src.checkCut(n); err != nil {
		return err
	}
	_, nt := src.splitCounts(n)
	// Each kept fragment lands at an index no later than the one it is
	// read from, so trimming m in place never overwrites an unread entry.
	dst := m.storage(nt)
	remaining := n
	for _, f := range src.frags {
		switch {
		case remaining >= f.Len:
			remaining -= f.Len
		case remaining > 0:
			dst = append(dst, Fragment{Space: f.Space, VA: f.VA + mem.VirtAddr(remaining), Len: f.Len - remaining})
			remaining = 0
		default:
			dst = append(dst, f)
		}
	}
	m.frags = dst
	return nil
}

// Bytes gathers the full message contents (copying; used by test
// verification and by explicitly-priced data-touching operations).
func (m *Message) Bytes() ([]byte, error) {
	return m.AppendBytes(make([]byte, 0, m.Len()))
}

// AppendBytes appends the full message contents to dst, reading each
// fragment straight into it, and returns the extended slice. It
// allocates only when dst lacks the capacity, so a receive handler can
// gather every delivery into one scratch buffer.
func (m *Message) AppendBytes(dst []byte) ([]byte, error) {
	n := len(dst)
	dst = slices.Grow(dst, m.Len())
	for _, f := range m.frags {
		dst = dst[:n+f.Len]
		if err := f.Space.ReadVirtInto(f.VA, dst[n:]); err != nil {
			return nil, err
		}
		n += f.Len
	}
	return dst, nil
}

// PhysSegments decomposes the whole message into physically contiguous
// buffers, fragment by fragment, merging across fragment boundaries when
// the physical addresses happen to abut. Its length is the descriptor
// count the driver must process for this PDU (§2.2).
func (m *Message) PhysSegments() ([]mem.PhysBuffer, error) {
	return m.AppendPhysSegments(nil)
}

// AppendPhysSegments is PhysSegments appending into segs, so per-PDU hot
// paths can reuse a scratch slice across calls. Merging across fragment
// boundaries happens exactly as in PhysSegments: the space-level append
// coalesces each new chunk with the previous segment when the physical
// addresses abut.
func (m *Message) AppendPhysSegments(segs []mem.PhysBuffer) ([]mem.PhysBuffer, error) {
	var err error
	for _, f := range m.frags {
		segs, err = f.Space.AppendPhysSegments(segs, f.VA, f.Len)
		if err != nil {
			return nil, err
		}
	}
	return segs, nil
}

// WireAll wires every page underlying the message (driver transmit path,
// §2.4); UnwireAll reverses it.
func (m *Message) WireAll() error {
	for _, f := range m.frags {
		if err := f.Space.WireRange(f.VA, f.Len); err != nil {
			return err
		}
	}
	return nil
}

// UnwireAll unwires every page underlying the message.
func (m *Message) UnwireAll() error {
	for _, f := range m.frags {
		if err := f.Space.UnwireRange(f.VA, f.Len); err != nil {
			return err
		}
	}
	return nil
}

func (m *Message) String() string {
	return fmt.Sprintf("msg{%d frags, %d bytes}", len(m.frags), m.Len())
}
