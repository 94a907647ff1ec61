// Package dpm models the OSIRIS board's 128 KB dual-port memory.
//
// From the host's perspective the adaptor looks like a 128 KB region of
// memory reached across the TURBOchannel, so every host access is priced
// as programmed I/O on the bus — the reason the paper's §2.1 goals
// include "minimizing the number of load and store operations required
// to communicate". On-board processor accesses are local and cheap.
//
// The memory guarantees atomicity of individual 32-bit loads and stores
// only; each half of the board additionally provides a test-and-set
// register usable as a spin lock (§2.1.1). The transmit half is divided
// into sixteen 4 KB pages, each holding a separate transmit queue, and
// the receive half likewise (one free-buffer/receive queue pair per
// page) — the partitioning application device channels rely on (§3.2).
package dpm

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bus"
	"repro/internal/mem"
	"repro/internal/sim"
)

const (
	// Size is the total dual-port memory size.
	Size = 128 * 1024
	// HalfSize is the size of each of the transmit and receive halves.
	HalfSize = Size / 2
	// PageSize is the size of one queue page.
	PageSize = 4096
	// PagesPerHalf is the number of queue pages in each half.
	PagesPerHalf = HalfSize / PageSize
	// BoardAccessTime prices one on-board processor access to the
	// dual-port memory.
	BoardAccessTime = 40 * time.Nanosecond
)

// Accessor identifies which side of the dual-port memory is accessing
// it, which determines the access cost.
type Accessor int

const (
	// Host accesses cross the TURBOchannel (expensive PIO).
	Host Accessor = iota
	// Board accesses are local to the adaptor.
	Board
)

func (a Accessor) String() string {
	if a == Host {
		return "host"
	}
	return "board"
}

// Register identifies one of the two test-and-set registers.
type Register int

const (
	// SendLock is the transmit half's test-and-set register.
	SendLock Register = iota
	// RecvLock is the receive half's test-and-set register.
	RecvLock
)

// Stats counts dual-port memory accesses by side.
type Stats struct {
	HostReads   int64
	HostWrites  int64
	BoardReads  int64
	BoardWrites int64
}

// Memory is one board's dual-port memory. Its bytes come from
// mem.Backing, so building a board does not clear 128 KB on the heap.
type Memory struct {
	eng   *sim.Engine
	bus   *bus.Bus
	data  []byte
	unmap func([]byte) error // returns data to the OS; nil when the Go heap holds it
	locks [2]bool
	stats Stats
	accs  *sim.Pool[*Access] // records of the accesses procs await
}

// New returns a dual-port memory whose host-side accesses are priced on b.
func New(e *sim.Engine, b *bus.Bus) *Memory {
	data, unmap := mem.Backing(Size)
	m := &Memory{eng: e, bus: b, data: data, unmap: unmap, accs: sim.PoolOf[Access](e)}
	if unmap != nil {
		runtime.SetFinalizer(m, (*Memory).Release) // a backstop for an owner that never calls Release
	}
	return m
}

// Engine returns the engine the memory's accesses run on.
func (m *Memory) Engine() *sim.Engine { return m.eng }

// Release returns the memory's bytes to the OS, at teardown: any later
// word access panics in its bounds check. Calling it again does nothing.
func (m *Memory) Release() {
	data, unmap := m.data, m.unmap
	// data goes first, so that a use after release fails the bounds
	// check instead of faulting on an unmapped page.
	m.data, m.unmap = nil, nil
	runtime.SetFinalizer(m, nil)
	if unmap != nil {
		if err := unmap(data); err != nil {
			panic(fmt.Sprintf("dpm: releasing the dual-port memory: %v", err))
		}
	}
}

// TxPageOff returns the offset of transmit queue page i.
func TxPageOff(i int) uint32 {
	if i < 0 || i >= PagesPerHalf {
		panic(fmt.Sprintf("dpm: tx page %d out of range", i))
	}
	return uint32(i * PageSize)
}

// RxPageOff returns the offset of receive queue page i.
func RxPageOff(i int) uint32 {
	if i < 0 || i >= PagesPerHalf {
		panic(fmt.Sprintf("dpm: rx page %d out of range", i))
	}
	return uint32(HalfSize + i*PageSize)
}

// count counts one access by who.
func (m *Memory) count(who Accessor, write bool) {
	switch {
	case who == Host && write:
		m.stats.HostWrites++
	case who == Host:
		m.stats.HostReads++
	case write:
		m.stats.BoardWrites++
	default:
		m.stats.BoardReads++
	}
}

// price returns the cost of one access by who: programmed I/O across
// the bus for the host, BoardAccessTime for the board.
func (m *Memory) price(who Accessor, write bool) sim.Hold {
	switch {
	case who == Board:
		return m.eng.Delay(BoardAccessTime)
	case write:
		return m.bus.PIOWrite(1)
	}
	return m.bus.PIORead(1)
}

func (m *Memory) checkWord(off uint32) {
	if off%4 != 0 || int(off)+4 > len(m.data) {
		m.badWord(off)
	}
}

func (m *Memory) badWord(off uint32) {
	if off%4 != 0 {
		panic(fmt.Sprintf("dpm: unaligned word access at %#x", off))
	}
	panic(fmt.Sprintf("dpm: access at %#x beyond %d", off, len(m.data)))
}

// Access is one atomic 32-bit word access in continuation form, the
// one implementation of a word access: ReadWord and WriteWord await it
// from a proc. It is counted when it is made; the word is loaded or
// stored once its accessor's cost has elapsed, at the instant the
// access takes effect. A board access costs BoardAccessTime, a plain
// sleep (sim.Engine.WakeAt), so one whose wakeup is the engine's next
// event takes no event at all; a host access is programmed I/O, a
// transaction on the bus.
type Access struct {
	m       *Memory
	off     uint32
	val     uint32
	write   bool
	host    bool
	waiting bool     // a board access's wakeup is scheduled
	pio     sim.Hold // a host access's bus transaction
}

// Load makes a a load of the word at byte offset off by who. An
// Access is set up in place, never copied: its fields are written
// piecemeal, and a copy reading them back whole would stall on that.
func (a *Access) Load(m *Memory, who Accessor, off uint32) { a.start(m, who, off, 0, false) }

// Store makes a a store of v to the word at byte offset off by who.
func (a *Access) Store(m *Memory, who Accessor, off, v uint32) { a.start(m, who, off, v, true) }

func (a *Access) start(m *Memory, who Accessor, off, v uint32, write bool) {
	m.checkWord(off)
	m.count(who, write)
	a.m, a.off, a.val, a.write, a.waiting = m, off, v, write, false
	a.host = who == Host
	if a.host {
		a.pio = m.price(who, write)
	}
}

// Step advances the access with k as the continuation to wake, and
// reports whether it has taken effect.
func (a *Access) Step(k sim.Cont) bool {
	if a.host {
		if !a.pio.Step(k) {
			return false
		}
	} else if !a.waiting {
		a.waiting = true
		e := a.m.eng
		if !e.WakeAt(e.Now().Add(BoardAccessTime), k) {
			return false
		}
	}
	if a.write {
		a.m.store(a.off, a.val)
	} else {
		a.val = a.m.load(a.off)
	}
	return true
}

// IssueLoad counts a load of the word at byte offset off by who, made
// now: the first half of a load whose wait its maker times itself, as
// the board's transmit processor times its polls. Word reads the word
// once the load takes effect.
func (m *Memory) IssueLoad(who Accessor, off uint32) {
	m.checkWord(off)
	m.count(who, false)
}

// Word returns the word at byte offset off as it is now: what a load
// taking effect at this instant reads. It counts nothing.
func (m *Memory) Word(off uint32) uint32 { return m.load(off) }

func (m *Memory) load(off uint32) uint32     { return binary.LittleEndian.Uint32(m.data[off:]) }
func (m *Memory) store(off uint32, v uint32) { binary.LittleEndian.PutUint32(m.data[off:], v) }

// Val returns the word a finished load read (or a store wrote).
func (a *Access) Val() uint32 { return a.val }

// ReadWord performs an atomic 32-bit load at byte offset off, charging
// the accessor's cost to p.
func (m *Memory) ReadWord(p *sim.Proc, who Accessor, off uint32) uint32 {
	a := sim.TakeNew(m.accs)
	a.Load(m, who, off)
	p.Await(a)
	v := a.val
	m.accs.Put(a)
	return v
}

// WriteWord performs an atomic 32-bit store at byte offset off.
func (m *Memory) WriteWord(p *sim.Proc, who Accessor, off uint32, v uint32) {
	a := sim.TakeNew(m.accs)
	a.Store(m, who, off, v)
	p.Await(a)
	m.accs.Put(a)
}

// TestAndSet atomically sets register r and returns its previous value.
// A return of false means the caller acquired the lock.
func (m *Memory) TestAndSet(p *sim.Proc, who Accessor, r Register) bool {
	m.count(who, true)
	m.price(who, true).Do(p)
	prev := m.locks[r]
	m.locks[r] = true
	return prev
}

// ClearLock releases register r.
func (m *Memory) ClearLock(p *sim.Proc, who Accessor, r Register) {
	m.count(who, true)
	m.price(who, true).Do(p)
	m.locks[r] = false
}

// LockHeld reports whether register r is currently set (for tests).
func (m *Memory) LockHeld(r Register) bool { return m.locks[r] }

// Stats returns a copy of the access counters.
func (m *Memory) Stats() Stats { return m.stats }

// ResetStats zeroes the access counters.
func (m *Memory) ResetStats() { m.stats = Stats{} }
