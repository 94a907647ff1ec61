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
	r := &Ring{d: d, base: base, slots: uint32(slots)}
	r.ops() // made now, so that no ring op of a run makes it
	return r
}

// ops returns the pool of the records procs await ring ops in: the
// engine's, shared by every ring on it (a pointer in each Ring would
// move it up a size class).
func (r *Ring) ops() *sim.Pool[*Op] { return sim.PoolOf[Op](r.d.Engine()) }

// Slots returns the slot count (capacity is Slots()-1).
func (r *Ring) Slots() int { return int(r.slots) }

// Init zeroes the head and tail pointers; who pays the access cost.
func (r *Ring) Init(p *sim.Proc, who dpm.Accessor) {
	pl := r.ops()
	o := sim.TakeNew(pl)
	o.Init(r, who)
	p.Await(o)
	pl.Put(o)
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
	pl := r.ops()
	o := sim.TakeNew(pl)
	o.Push(r, who, d)
	p.Await(o)
	ok := o.ok
	pl.Put(o)
	return ok
}

// TryPop removes the oldest descriptor if the ring is not empty,
// re-reading the head pointer only when the shadow indicates emptiness.
func (r *Ring) TryPop(p *sim.Proc, who dpm.Accessor) (Desc, bool) {
	pl := r.ops()
	o := sim.TakeNew(pl)
	o.Pop(r, who)
	p.Await(o)
	d, ok := o.d, o.ok
	pl.Put(o)
	return d, ok
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

// ObserveTail reads the tail pointer across the port; the transmit path
// uses the tail's advance — instead of an interrupt — to learn that the
// board consumed buffers (§2.1.2).
func (r *Ring) ObserveTail(p *sim.Proc, who dpm.Accessor) uint32 {
	pl := r.ops()
	o := sim.TakeNew(pl)
	o.Observe(r, who)
	p.Await(o)
	n := uint32(o.n)
	pl.Put(o)
	return n
}

// readerAvail is the number of queued descriptors by the reader's
// shadow of the head.
func (r *Ring) readerAvail() int { return int((r.rSeenHead + r.slots - r.rTail) % r.slots) }

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

// Op is one ring operation in continuation form and the one
// implementation of it: the proc forms (TryPush, TryPop, ObserveTail)
// await a pooled Op (sim.Proc.Await), and the board's firmware and DMA
// engines and the driver's buffer set-up, which are state machines
// rather than procs, step one. Each word access
// costs its accessor's price and takes effect at its own instant
// (dpm.Access). The method naming the operation (Push, Pop, Peek, ...)
// sets an Op up in place; an Op is not copied. Step advances it with k
// as the continuation to wake, and reports whether it has finished.
type Op struct {
	r    *Ring
	who  dpm.Accessor
	kind opKind
	pc   uint8
	busy bool       // waiting on a
	a    dpm.Access // the word access in progress; a state after a load finds the word in it
	ok   bool       // results of Push, Pop, Peek and Notify
	at   uint32     // Notify: the flag word's offset; Pop, Peek: the slot's
	n    int        // Peek: the index; Advance: the count; results of Len and Observe
	d    Desc       // Push: the descriptor; result of Pop and Peek
}

type opKind uint8

const (
	opPush opKind = iota
	opPop
	opPeek
	opAdvance
	opLen
	opObserve
	opNotify
	opInit
)

func (o *Op) start(r *Ring, who dpm.Accessor, kind opKind) {
	o.r, o.who, o.kind, o.pc, o.busy, o.ok = r, who, kind, 0, false, false
}

// Push makes o append d to r if r is not full, re-reading the tail
// pointer only when the writer's shadow says r might be full; OK
// reports whether d was queued.
func (o *Op) Push(r *Ring, who dpm.Accessor, d Desc) {
	o.start(r, who, opPush)
	o.d = d
}

// Pop makes o remove r's oldest descriptor if r is not empty,
// re-reading the head pointer only when the reader's shadow says r is
// empty; OK reports whether there was one, and Desc returns it.
func (o *Op) Pop(r *Ring, who dpm.Accessor) {
	o.start(r, who, opPop)
	o.n, o.d = 0, Desc{}
}

// Peek makes o read r's k-th descriptor from the tail without
// consuming it, refreshing the head shadow as needed; OK reports
// whether there was one, and Desc returns it. The OSIRIS transmit
// processor reads descriptors this way and advances the tail only once
// the buffers have been DMA'd, because the tail's advance is the
// host's transmit-completion signal (§2.1.2).
func (o *Op) Peek(r *Ring, who dpm.Accessor, k int) {
	o.start(r, who, opPeek)
	o.n, o.d = k, Desc{}
}

// Advance makes o consume n descriptors examined with Peek, publishing
// the new tail in one store.
func (o *Op) Advance(r *Ring, who dpm.Accessor, n int) {
	o.start(r, who, opAdvance)
	o.n = n
}

// Len makes o count the queued descriptors from the reader's side,
// refreshing the head shadow; N returns the count.
func (o *Op) Len(r *Ring, who dpm.Accessor) { o.start(r, who, opLen) }

// Observe makes o read r's tail pointer across the port; N returns it.
func (o *Op) Observe(r *Ring, who dpm.Accessor) { o.start(r, who, opObserve) }

// Notify makes o run the reader's half of the transmit-side interrupt
// protocol of §2.1.2: the host, having found r full, sets the notify
// flag word at byte offset flag; once r has drained to half
// (HalfEmptyPoint) the reader clears the flag, and OK reports that the
// host is to be interrupted.
func (o *Op) Notify(r *Ring, who dpm.Accessor, flag uint32) {
	o.start(r, who, opNotify)
	o.at = flag
}

// Init makes o zero r's head and tail pointers, one store each, and
// then reset both sides' shadows of them.
func (o *Op) Init(r *Ring, who dpm.Accessor) { o.start(r, who, opInit) }

// OK reports the result of a finished Push, Pop, Peek or Notify.
func (o *Op) OK() bool { return o.ok }

// Desc returns the descriptor a finished Pop or Peek read.
func (o *Op) Desc() Desc { return o.d }

// N returns the result of a finished Len or Observe.
func (o *Op) N() int { return o.n }

// Step advances the op and reports whether it has finished.
func (o *Op) Step(k sim.Cont) bool {
	for {
		if o.busy {
			if !o.a.Step(k) {
				return false
			}
			o.busy = false
		}
		if o.next() {
			return true
		}
	}
}

// load and put issue a word access, to be followed by state pc.
func (o *Op) load(off uint32, pc uint8) bool {
	o.a.Load(o.r.d, o.who, off)
	o.busy, o.pc = true, pc
	return false
}

func (o *Op) put(off, v uint32, pc uint8) bool {
	o.a.Store(o.r.d, o.who, off, v)
	o.busy, o.pc = true, pc
	return false
}

// next runs the op from its state to its next word access (issued) or
// to its end, reporting whether it ended.
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
			r.wSeenTail = o.a.Val()
			if r.next(r.wHead) == r.wSeenTail {
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
	case opPop, opPeek:
		switch o.pc {
		case 0:
			if o.n >= r.readerAvail() {
				return o.load(r.headOff(), 1)
			}
			o.pc = 2
		case 1:
			r.rSeenHead = o.a.Val()
			if o.n >= r.readerAvail() {
				return true
			}
			o.pc = 2
		case 2:
			o.at = r.slotOff((r.rTail + uint32(o.n)) % r.slots)
			return o.load(o.at, 3)
		case 3, 4, 5:
			i := o.pc - 3
			o.d.setWord(i, o.a.Val())
			return o.load(o.at+4*uint32(i+1), o.pc+1)
		case 6:
			o.d.setWord(3, o.a.Val())
			o.ok = true
			if o.kind == opPeek {
				return true
			}
			r.rTail = r.next(r.rTail)
			return o.put(r.tailOff(), r.rTail, 7)
		default:
			return true
		}
	case opAdvance:
		if o.pc == 0 {
			if o.n > r.readerAvail() {
				panic("queue: Advance past head")
			}
			r.rTail = (r.rTail + uint32(o.n)) % r.slots
			return o.put(r.tailOff(), r.rTail, 1)
		}
		return true
	case opLen:
		if o.pc == 0 {
			return o.load(r.headOff(), 1)
		}
		r.rSeenHead = o.a.Val()
		o.n = r.readerAvail()
		return true
	case opObserve:
		if o.pc == 0 {
			return o.load(r.tailOff(), 1)
		}
		r.wSeenTail = o.a.Val()
		o.n = int(r.wSeenTail)
		return true
	case opNotify:
		switch o.pc {
		case 0:
			return o.load(o.at, 1)
		case 1:
			if o.a.Val() == 0 {
				return true
			}
			return o.load(r.headOff(), 2)
		case 2:
			r.rSeenHead = o.a.Val()
			if r.readerAvail() > r.HalfEmptyPoint() {
				return true
			}
			return o.put(o.at, 0, 3)
		default:
			o.ok = true
			return true
		}
	case opInit:
		switch o.pc {
		case 0:
			return o.put(r.headOff(), 0, 1)
		case 1:
			return o.put(r.tailOff(), 0, 2)
		default:
			r.wHead, r.wSeenTail, r.rTail, r.rSeenHead = 0, 0, 0, 0
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

// setWord stores v as the descriptor's i-th dual-port word.
func (d *Desc) setWord(i uint8, v uint32) {
	switch i {
	case 0:
		d.Addr = mem.PhysAddr(v)
	case 1:
		d.Len = v
	case 2:
		d.VCI = atm.VCI(v >> 16)
		d.Flags = uint16(v)
	default:
		d.Aux = v
	}
}
