// Package queue implements the paper's host/board communication
// structures over the dual-port memory (§2.1.1).
//
// The basic structure is a lock-free one-reader-one-writer FIFO of
// buffer descriptors: an array plus a head pointer modified only by the
// writer and a tail pointer modified only by the reader, relying solely
// on the dual-port memory's word atomicity. Status is derived from the
// pointers:
//
//	head == tail             → queue empty
//	(head+1) mod size == tail → queue full
//
// Each side keeps a local shadow copy of the pointer it owns and of the
// last value it observed of the other side's pointer, re-reading across
// the bus only when the shadow says the queue might be empty/full — this
// is what "minimizing the number of load and store operations" (§2.1)
// buys.
//
// A spin-lock variant (SpinRing), built on the board's test-and-set
// registers, is provided purely as the ablation baseline the paper
// argues against: it admits arbitrarily complex shared structures but
// serializes host and board accesses.
package queue

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/dpm"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Desc flags.
const (
	// FlagEOP marks the final buffer of a PDU.
	FlagEOP uint16 = 1 << 0
	// FlagErr marks a buffer the board found in error (e.g. CRC failure).
	FlagErr uint16 = 1 << 1
	// FlagCE marks a PDU at least one of whose cells arrived with the
	// congestion-experienced bit set by the fabric; the board sets it on
	// the EOP descriptor so the driver can surface the mark to transports.
	FlagCE uint16 = 1 << 2
)

// Desc describes one physical buffer exchanged between host and board:
// its physical address and length, plus the VCI and flags the receive
// path needs for early demultiplexing.
type Desc struct {
	Addr  mem.PhysAddr
	Len   uint32
	VCI   atm.VCI
	Flags uint16
	Aux   uint32 // strategy-specific (e.g. byte offset within the PDU)
}

// descWords is the descriptor footprint in 32-bit words.
const descWords = 4

// ringHdrWords is head + tail.
const ringHdrWords = 2

// BytesFor returns the dual-port memory footprint of a ring with the
// given number of descriptor slots.
func BytesFor(slots int) int { return 4 * (ringHdrWords + slots*descWords) }

// Ring is the lock-free 1R1W descriptor FIFO. One party (fixed at
// construction per call site convention) must be the only writer and
// the other the only reader; the implementation does not police this —
// just as the hardware did not.
//
// Note: a ring with S slots holds at most S-1 descriptors (the classic
// one-empty-slot full/empty disambiguation).
type Ring struct {
	d     *dpm.Memory
	base  uint32
	slots uint32

	// Writer-side shadows.
	wHead     uint32 // writer's own head (authoritative; mirror of dpm)
	wSeenTail uint32 // last tail value the writer observed
	// Reader-side shadows.
	rTail     uint32 // reader's own tail
	rSeenHead uint32 // last head value the reader observed
}

// NewRing lays a ring with the given slot count over dual-port memory d
// at byte offset base. The region must be zeroed (fresh board) or Init
// must be called by one side before use.
func NewRing(d *dpm.Memory, base uint32, slots int) *Ring {
	if slots < 2 {
		panic("queue: ring needs at least 2 slots")
	}
	if base%4 != 0 {
		panic("queue: ring base must be word aligned")
	}
	return &Ring{d: d, base: base, slots: uint32(slots)}
}

// Slots returns the slot count (capacity is Slots()-1).
func (r *Ring) Slots() int { return int(r.slots) }

// Init zeroes the head and tail pointers; who pays the access cost.
func (r *Ring) Init(p *sim.Proc, who dpm.Accessor) {
	r.d.WriteWord(p, who, r.headOff(), 0)
	r.d.WriteWord(p, who, r.tailOff(), 0)
	r.wHead, r.wSeenTail, r.rTail, r.rSeenHead = 0, 0, 0, 0
}

func (r *Ring) headOff() uint32 { return r.base }
func (r *Ring) tailOff() uint32 { return r.base + 4 }
func (r *Ring) slotOff(i uint32) uint32 {
	return r.base + 4*ringHdrWords + 4*descWords*i
}

func (r *Ring) next(i uint32) uint32 { return (i + 1) % r.slots }

// TryPush appends d if the ring is not full, re-reading the tail pointer
// across the port only when the shadow indicates the ring might be full.
// It reports whether the descriptor was queued.
func (r *Ring) TryPush(p *sim.Proc, who dpm.Accessor, d Desc) bool {
	o := r.Push(who, d)
	o.Run(p)
	return o.OK()
}

// TryPop removes the oldest descriptor if the ring is not empty,
// re-reading the head pointer only when the shadow indicates emptiness.
func (r *Ring) TryPop(p *sim.Proc, who dpm.Accessor) (Desc, bool) {
	if r.rTail == r.rSeenHead {
		r.rSeenHead = r.d.ReadWord(p, who, r.headOff())
		if r.rTail == r.rSeenHead {
			return Desc{}, false
		}
	}
	off := r.slotOff(r.rTail)
	var d Desc
	d.Addr = mem.PhysAddr(r.d.ReadWord(p, who, off))
	d.Len = r.d.ReadWord(p, who, off+4)
	vf := r.d.ReadWord(p, who, off+8)
	d.VCI = atm.VCI(vf >> 16)
	d.Flags = uint16(vf)
	d.Aux = r.d.ReadWord(p, who, off+12)
	r.rTail = r.next(r.rTail)
	r.d.WriteWord(p, who, r.tailOff(), r.rTail)
	return d, true
}

// WriterFull reports, from the writer's perspective, whether the ring is
// full, refreshing the tail shadow if needed.
func (r *Ring) WriterFull(p *sim.Proc, who dpm.Accessor) bool {
	if r.next(r.wHead) != r.wSeenTail {
		return false
	}
	r.wSeenTail = r.d.ReadWord(p, who, r.tailOff())
	return r.next(r.wHead) == r.wSeenTail
}

// ReaderEmpty reports, from the reader's perspective, whether the ring
// is empty, refreshing the head shadow if needed.
func (r *Ring) ReaderEmpty(p *sim.Proc, who dpm.Accessor) bool {
	if r.rTail != r.rSeenHead {
		return false
	}
	r.rSeenHead = r.d.ReadWord(p, who, r.headOff())
	return r.rTail == r.rSeenHead
}

// ReaderPeek returns the k-th descriptor from the tail without consuming
// it, refreshing the head shadow as needed. The OSIRIS transmit
// processor reads descriptors this way and only advances the tail once
// the buffers have actually been DMA'd, because the tail's advance is
// the host's transmit-completion signal (§2.1.2).
func (r *Ring) ReaderPeek(p *sim.Proc, who dpm.Accessor, k int) (Desc, bool) {
	avail := int((r.rSeenHead + r.slots - r.rTail) % r.slots)
	if k >= avail {
		r.rSeenHead = r.d.ReadWord(p, who, r.headOff())
		avail = int((r.rSeenHead + r.slots - r.rTail) % r.slots)
		if k >= avail {
			return Desc{}, false
		}
	}
	off := r.slotOff((r.rTail + uint32(k)) % r.slots)
	var d Desc
	d.Addr = mem.PhysAddr(r.d.ReadWord(p, who, off))
	d.Len = r.d.ReadWord(p, who, off+4)
	vf := r.d.ReadWord(p, who, off+8)
	d.VCI = atm.VCI(vf >> 16)
	d.Flags = uint16(vf)
	d.Aux = r.d.ReadWord(p, who, off+12)
	return d, true
}

// ReaderAdvance consumes n descriptors previously examined with
// ReaderPeek, publishing the new tail in one store.
func (r *Ring) ReaderAdvance(p *sim.Proc, who dpm.Accessor, n int) {
	o := r.Advance(who, n)
	o.Run(p)
}

// ReaderLen returns the number of queued descriptors from the reader's
// perspective, refreshing the head shadow.
func (r *Ring) ReaderLen(p *sim.Proc, who dpm.Accessor) int {
	o := r.op(who, opLen)
	o.Run(p)
	return o.n
}

// ObserveTail reads the tail pointer across the port; the transmit path
// uses the tail's advance — instead of an interrupt — to learn that the
// board consumed buffers (§2.1.2).
func (r *Ring) ObserveTail(p *sim.Proc, who dpm.Accessor) uint32 {
	o := r.Observe(who)
	o.Run(p)
	return uint32(o.n)
}

// ReaderNotify runs the reader's half of the transmit-side interrupt
// protocol of §2.1.2 and reports whether to interrupt the host: the
// host, having found the ring full, sets the notify flag word at byte
// offset flag; once the ring has drained to half (HalfEmptyPoint) the
// reader clears the flag and interrupts.
func (r *Ring) ReaderNotify(p *sim.Proc, who dpm.Accessor, flag uint32) bool {
	o := r.Notify(who, flag)
	o.Run(p)
	return o.OK()
}

// WriterLen returns the number of queued descriptors from the writer's
// shadow state (no bus traffic).
func (r *Ring) WriterLen() int {
	return int((r.wHead + r.slots - r.wSeenTail) % r.slots)
}

// HalfEmptyPoint returns the fill level at which the board asserts the
// "queue drained to half" interrupt after a full condition (§2.1.2).
func (r *Ring) HalfEmptyPoint() int { return int(r.slots) / 2 }

func (r *Ring) String() string {
	return fmt.Sprintf("ring@%#x[%d]", r.base, r.slots)
}

// Op is a ring operation in continuation form, for an accessor that
// runs as a state machine rather than a proc (the board's DMA
// engines). Each of its word accesses costs its accessor's price and
// takes effect at its own instant (dpm.Access), exactly as the proc
// form's do: the proc forms above run the same Op. Step advances it
// with k as the continuation to wake, and reports whether it has
// finished.
type Op struct {
	r    *Ring
	who  dpm.Accessor
	kind opKind
	pc   uint8
	// The word access the op waits on: at off, storing val if store,
	// else loading into val. Step makes it a dpm.Access in a.
	busy, store, started bool
	off, val             uint32
	a                    dpm.Access
	d                    Desc   // opPush: the descriptor
	flag                 uint32 // opNotify: the flag word's offset
	n                    int    // opAdvance: the count; results of opLen and opObserve
	ok                   bool   // results of opPush and opNotify
}

type opKind uint8

const (
	opPush    opKind = iota // TryPush
	opAdvance               // ReaderAdvance
	opLen                   // ReaderLen
	opObserve               // ObserveTail
	opNotify                // ReaderNotify
)

func (r *Ring) op(who dpm.Accessor, kind opKind) Op { return Op{r: r, who: who, kind: kind} }

// Push returns TryPush(who, d) as an Op; OK reports whether d was queued.
func (r *Ring) Push(who dpm.Accessor, d Desc) Op {
	o := r.op(who, opPush)
	o.d = d
	return o
}

// Advance returns ReaderAdvance(who, n) as an Op.
func (r *Ring) Advance(who dpm.Accessor, n int) Op {
	o := r.op(who, opAdvance)
	o.n = n
	return o
}

// Observe returns ObserveTail(who) as an Op.
func (r *Ring) Observe(who dpm.Accessor) Op { return r.op(who, opObserve) }

// Notify returns ReaderNotify(who, flag) as an Op; OK reports whether
// to interrupt the host.
func (r *Ring) Notify(who dpm.Accessor, flag uint32) Op {
	o := r.op(who, opNotify)
	o.flag = flag
	return o
}

// OK reports the result of a finished push or notify.
func (o *Op) OK() bool { return o.ok }

// Run completes the op from proc p, making each access with the
// proc's ReadWord and WriteWord.
func (o *Op) Run(p *sim.Proc) {
	for !o.next() {
		if !o.busy {
			continue
		}
		if o.store {
			o.r.d.WriteWord(p, o.who, o.off, o.val)
		} else {
			o.val = o.r.d.ReadWord(p, o.who, o.off)
		}
		o.busy = false
	}
}

// Step advances the op and reports whether it has finished.
func (o *Op) Step(k sim.Cont) bool {
	for {
		if o.busy {
			if !o.started {
				o.started = true
				if o.store {
					o.a = o.r.d.Write(o.who, o.off, o.val)
				} else {
					o.a = o.r.d.Read(o.who, o.off)
				}
			}
			if !o.a.Step(k) {
				return false
			}
			o.val = o.a.Val()
			o.busy, o.started = false, false
		}
		if o.next() {
			return true
		}
	}
}

// load and put issue a word access, to be followed by state pc.
func (o *Op) load(off uint32, pc uint8) bool {
	o.busy, o.store, o.off, o.pc = true, false, off, pc
	return false
}

func (o *Op) put(off, v uint32, pc uint8) bool {
	o.busy, o.store, o.off, o.val, o.pc = true, true, off, v, pc
	return false
}

// next runs the op from its state to its next word access (issued) or
// to its end, reporting whether it ended. A state after a load finds
// the word in o.val.
func (o *Op) next() bool {
	r := o.r
	switch o.kind {
	case opPush:
		switch o.pc {
		case 0:
			if r.next(r.wHead) == r.wSeenTail {
				return o.load(r.tailOff(), 1)
			}
			o.pc = 2
		case 1:
			r.wSeenTail = o.val
			if r.next(r.wHead) == r.wSeenTail {
				o.ok = false
				return true
			}
			o.pc = 2
		case 2, 3, 4, 5:
			i := o.pc - 2
			return o.put(r.slotOff(r.wHead)+4*uint32(i), o.d.word(i), o.pc+1)
		case 6:
			r.wHead = r.next(r.wHead)
			return o.put(r.headOff(), r.wHead, 7)
		default:
			o.ok = true
			return true
		}
	case opAdvance:
		if o.pc == 0 {
			avail := int((r.rSeenHead + r.slots - r.rTail) % r.slots)
			if o.n > avail {
				panic("queue: ReaderAdvance past head")
			}
			r.rTail = (r.rTail + uint32(o.n)) % r.slots
			return o.put(r.tailOff(), r.rTail, 1)
		}
		return true
	case opLen:
		if o.pc == 0 {
			return o.load(r.headOff(), 1)
		}
		r.rSeenHead = o.val
		o.n = int((r.rSeenHead + r.slots - r.rTail) % r.slots)
		return true
	case opObserve:
		if o.pc == 0 {
			return o.load(r.tailOff(), 1)
		}
		r.wSeenTail = o.val
		o.n = int(r.wSeenTail)
		return true
	case opNotify:
		switch o.pc {
		case 0:
			return o.load(o.flag, 1)
		case 1:
			if o.val == 0 {
				return true
			}
			return o.load(r.headOff(), 2)
		case 2:
			r.rSeenHead = o.val
			if int((r.rSeenHead+r.slots-r.rTail)%r.slots) > r.HalfEmptyPoint() {
				return true
			}
			return o.put(o.flag, 0, 3)
		default:
			o.ok = true
			return true
		}
	}
	return false
}

// word returns the i-th of the descriptor's four dual-port words.
func (d Desc) word(i uint8) uint32 {
	switch i {
	case 0:
		return uint32(d.Addr)
	case 1:
		return d.Len
	case 2:
		return uint32(d.VCI)<<16 | uint32(d.Flags)
	}
	return d.Aux
}
