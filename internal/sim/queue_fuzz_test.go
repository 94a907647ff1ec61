package sim

import (
	"fmt"
	"testing"
)

// queueUnderTest is what a queue program drives: the engine, or the
// reference queue below. Scheduling forms append one handle each, in
// program order, so handle k names the same event in both.
type queueUnderTest interface {
	now() Time
	at(t Time, label int, call bool) // At (call false) or AtCall
	inject(t, schedAt Time, xid, seq uint64, label int)
	cancel(k int)
	wakeAt(t Time, label int) bool
	run()
	runUntil(t Time)
	pending() int
	events() uint64
}

// queueProgram interprets fuzz bytes as a schedule of queue operations,
// at top level and inside the callbacks they schedule, and logs every
// firing, WakeAt answer and end-of-run state. Exhausted input reads as
// zero bytes, which schedule nothing, so every program terminates.
type queueProgram struct {
	data    []byte
	labels  int
	handles int
	xseq    [4]uint64 // last injected seq per xid (1..3)
	q       queueUnderTest
	log     []string
}

func (p *queueProgram) next() byte {
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return b
}

func (p *queueProgram) logf(format string, args ...any) {
	p.log = append(p.log, fmt.Sprintf(format, args...))
}

func (p *queueProgram) label() int { p.labels++; return p.labels }

// fire is every event's callback: log the firing, then run up to three
// actions. A WakeAt taken in place continues here as its label's
// firing, the way a continuation's trampoline loop does.
func (p *queueProgram) fire(label int) {
	for label != 0 {
		p.logf("fire %d at %d pending %d events %d", label, p.q.now(), p.q.pending(), p.q.events())
		cont := 0
		for n := p.next() % 4; n > 0 && cont == 0; n-- {
			cont = p.action()
		}
		label = cont
	}
}

// action runs one operation at the current instant and returns the
// label of a WakeAt taken in place, else 0.
func (p *queueProgram) action() int {
	op := p.next()
	d := Time(op >> 3 & 7)
	now := p.q.now()
	switch op & 7 {
	case 0, 1: // At, AtCall; d = 0 ties with the current instant
		p.handles++
		p.q.at(now+d, p.label(), op&1 == 1)
	case 2: // a later event, for horizons to fall before
		p.handles++
		p.q.at(now+100*d+50, p.label(), true)
	case 3: // a stamped delivery: any schedAt up to its instant
		b := p.next()
		xid := uint64(1 + b%3)
		p.xseq[xid] += 1 + uint64(b>>2&3)
		schedAt := now + d - Time(b>>4)
		if schedAt < 0 {
			schedAt = 0
		}
		p.q.inject(now+d, schedAt, xid, p.xseq[xid], p.label())
	case 4, 5: // Cancel a live or a stale handle
		if p.handles > 0 {
			p.q.cancel(int(p.next()) % p.handles)
		}
	case 6, 7:
		l := p.label()
		ok := p.q.wakeAt(now+d/2, l)
		p.logf("wake %d at %d: %v", l, now+d/2, ok)
		if ok {
			return l
		}
	}
	return 0
}

// drive runs the whole program against q and returns its log.
func (p *queueProgram) drive(q queueUnderTest) []string {
	p.q = q
	for len(p.data) > 0 {
		switch op := p.next(); op & 3 {
		case 0, 1:
			p.action()
		case 2:
			q.runUntil(q.now() + 1 + Time(op>>2)*7)
			p.logf("until: now %d pending %d events %d", q.now(), q.pending(), q.events())
		case 3:
			q.run()
			p.logf("run: now %d pending %d events %d", q.now(), q.pending(), q.events())
		}
	}
	q.run()
	p.logf("end: now %d pending %d events %d", q.now(), q.pending(), q.events())
	return p.log
}

// engineQueue adapts the Engine.
type engineQueue struct {
	e       *Engine
	p       *queueProgram
	handles []Event
}

func (q *engineQueue) fireCB(a any) { q.p.fire(a.(int)) }

func (q *engineQueue) now() Time { return q.e.Now() }
func (q *engineQueue) at(t Time, label int, call bool) {
	if call {
		q.handles = append(q.handles, q.e.AtCall(t, q.fireCB, label))
	} else {
		q.handles = append(q.handles, q.e.At(t, func() { q.p.fire(label) }))
	}
}
func (q *engineQueue) inject(t, schedAt Time, xid, seq uint64, label int) {
	q.e.InjectStamped(t, schedAt, xid, seq, q.fireCB, label)
}
func (q *engineQueue) cancel(k int) { q.e.Cancel(q.handles[k]) }
func (q *engineQueue) wakeAt(t Time, label int) bool {
	return q.e.WakeAt(t, Cont{Fn: q.fireCB, Arg: label})
}
func (q *engineQueue) run()            { q.e.Run() }
func (q *engineQueue) runUntil(t Time) { q.e.RunUntil(t) }
func (q *engineQueue) pending() int    { return q.e.Pending() }
func (q *engineQueue) events() uint64  { return q.e.Events() }

// refQueue is the reference: an unordered slice searched linearly for
// the earliest event by (at, schedAt, xid, seq), with the documented
// Run, RunUntil, Cancel and WakeAt semantics written out plainly.
type refQueue struct {
	p          *queueProgram
	t          Time
	seq, fired uint64
	limit      Time
	running    bool
	evs        []refEvent
}

type refEvent struct {
	at, schedAt Time
	xid, seq    uint64
	label       int
	handle      int // -1: no handle
}

func refBefore(a, b refEvent) bool {
	switch {
	case a.at != b.at:
		return a.at < b.at
	case a.schedAt != b.schedAt:
		return a.schedAt < b.schedAt
	case a.xid != b.xid:
		return a.xid < b.xid
	}
	return a.seq < b.seq
}

// first returns the index of the earliest event, -1 if none.
func (q *refQueue) first() int {
	m := -1
	for i := range q.evs {
		if m < 0 || refBefore(q.evs[i], q.evs[m]) {
			m = i
		}
	}
	return m
}

func (q *refQueue) remove(i int) refEvent {
	ev := q.evs[i]
	q.evs = append(q.evs[:i], q.evs[i+1:]...)
	return ev
}

func (q *refQueue) schedule(t Time, label, handle int) {
	q.seq++
	q.evs = append(q.evs, refEvent{at: t, schedAt: q.t, seq: q.seq, label: label, handle: handle})
}

func (q *refQueue) now() Time { return q.t }
func (q *refQueue) at(t Time, label int, call bool) {
	q.schedule(t, label, q.p.handles-1)
}
func (q *refQueue) inject(t, schedAt Time, xid, seq uint64, label int) {
	q.evs = append(q.evs, refEvent{at: t, schedAt: schedAt, xid: xid, seq: seq, label: label, handle: -1})
}
func (q *refQueue) cancel(k int) {
	for i, ev := range q.evs {
		if ev.handle == k {
			q.remove(i)
			return
		}
	}
}

// wakeAt takes the wakeup in place when it would be the next event run:
// running, within the horizon, nothing queued at or before it.
func (q *refQueue) wakeAt(t Time, label int) bool {
	if t < q.t {
		t = q.t
	}
	due := false
	for _, ev := range q.evs {
		due = due || ev.at <= t
	}
	if q.running && (q.limit == 0 || t <= q.limit) && !due {
		q.seq++
		q.fired++
		q.t = t
		return true
	}
	q.schedule(t, label, -1)
	return false
}

func (q *refQueue) run() {
	q.running = true
	for {
		i := q.first()
		if i < 0 || q.limit != 0 && q.evs[i].at > q.limit {
			break
		}
		ev := q.remove(i)
		q.t = ev.at
		q.fired++
		q.p.fire(ev.label)
	}
	q.running = false
}

func (q *refQueue) runUntil(t Time) {
	prev := q.limit
	q.limit = t
	q.run()
	q.limit = prev
	if q.t < t {
		q.t = t
	}
}

func (q *refQueue) pending() int   { return len(q.evs) }
func (q *refQueue) events() uint64 { return q.fired }

// FuzzEventQueueMatchesReference runs one fuzz-derived program of At,
// AtCall and InjectStamped (random stamps), Cancel of live and stale
// handles, WakeAt from inside callbacks (taken in place or not), Run
// and RunUntil horizons against the engine and against refQueue,
// and requires identical logs: the firing order with each firing's
// instant, Pending and Events; every WakeAt's answer; and Now, Pending
// and Events after every run.
func FuzzEventQueueMatchesReference(f *testing.F) {
	// Callbacks that schedule their successor at once (the fused
	// pop–push), then cancel inside callbacks, then in-place wakeups.
	f.Add([]byte{0x00, 0x08, 0x01, 0x10, 0x03, 0x01, 0x08, 0x01, 0x00, 0x02, 0x09, 0x04, 0x00, 0x01, 0x11, 0x03})
	f.Add([]byte{0x01, 0x08, 0x01, 0x18, 0x01, 0x20, 0x03, 0x02, 0x01, 0x04, 0x00, 0x02, 0x0C, 0x02, 0x01, 0x28, 0x03})
	f.Add([]byte{0x00, 0x20, 0x00, 0x10, 0x03, 0x02, 0x16, 0x01, 0x10, 0x01, 0x0E, 0x01, 0x00, 0x03})
	f.Add([]byte{0x01, 0x03, 0x17, 0x01, 0x1B, 0x09, 0x03, 0x02, 0x00, 0x01, 0x00, 0x05, 0x00, 0x07, 0x03, 0x06})
	f.Add([]byte{0x00, 0x02, 0x00, 0x0A, 0x01, 0x08, 0x02, 0x02, 0x01, 0x38, 0x0A, 0x07, 0x01, 0x00, 0x03, 0x03, 0x03})
	// A Cancel whose hole the last node must fill by sifting up.
	f.Add([]byte("00000C00c0000&0A0$1"))
	// A WakeAt while the dead root's right child is the earliest event.
	f.Add([]byte("000A0A21&"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		ref := &queueProgram{data: data}
		want := ref.drive(&refQueue{p: ref})
		got := &queueProgram{data: data}
		e := NewEngine(1)
		defer e.Shutdown()
		have := got.drive(&engineQueue{e: e, p: got})
		for i := range want {
			if i >= len(have) || have[i] != want[i] {
				h := "<missing>"
				if i < len(have) {
					h = have[i]
				}
				t.Fatalf("line %d: engine %q, reference %q", i, h, want[i])
			}
		}
		if len(have) != len(want) {
			t.Fatalf("engine logged %d lines, reference %d", len(have), len(want))
		}
	})
}
