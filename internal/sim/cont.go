package sim

import "time"

// Cont is a continuation: the step an activity resumes with, a callback
// and its argument. It is the package's one waiter representation —
// Cond, Resource, Chan and the callers of WakeAt queue and schedule
// Conts — and a blocked proc is just the continuation
// (resumeProc, p) (Proc.Cont). Procs and callback-driven state
// machines therefore wait in one FIFO queue, and a callback is woken
// by exactly the event, at the same instant and with the same sequence
// stamp, that would have resumed a proc in its place.
//
// Boxing a pointer into Arg stores the pointer, so a Cont built once
// per activity makes every wait and wakeup allocation-free.
//
// A proc does not step an operation itself: Proc.Await parks it once
// and passes the operation its await continuation, which steps the
// operation from events and resumes the proc when it has finished.
type Cont struct {
	Fn  func(any)
	Arg any
}

// Op is an operation in continuation form: Step advances it with k as
// the continuation to wake when it must wait, reports false when it
// has queued or scheduled k (Step is called again when k runs), and
// true once the operation has finished. State machines step ops
// themselves; a proc runs one with Proc.Await.
type Op interface {
	Step(k Cont) bool
}

// wake schedules k at instant t.
func (e *Engine) wake(t Time, k Cont) { e.schedule(t, k.Fn, k.Arg) }

// WakeAt arranges for k to run at instant t (the current instant if t
// is earlier): the continuation form of Proc.SleepUntil. When that
// wakeup would be the very next event Run executes, WakeAt takes it in
// place (Engine.advance) — the clock moves to t and the event is
// counted — and reports true, so the caller carries on in its own loop
// instead of returning to the engine: a trampoline, never a nested
// call. Otherwise it schedules k and reports false, and the caller
// returns. Either way the event count and every sequence stamp are
// those of a proc sleeping until t.
func (e *Engine) WakeAt(t Time, k Cont) bool {
	if t < e.now {
		t = e.now
	}
	if e.advance(t) {
		return true
	}
	e.wake(t, k)
	return false
}

// Hold is one transaction on a Resource in continuation form: acquire
// it (waiting in its FIFO queue), hold it for a span of virtual time,
// release it. A Hold on no resource (Engine.Delay) is the span alone.
// Step advances the transaction with k as the continuation to wake
// when it must wait, and reports whether it has finished; a proc runs
// one to completion with Do.
type Hold struct {
	e     *Engine
	r     *Resource // nil: no resource, just the span
	d     time.Duration
	state uint8
}

// Hold returns a transaction that holds r for d.
func (r *Resource) Hold(d time.Duration) Hold { return Hold{e: r.eng, r: r, d: d} }

// Delay returns a transaction on no resource that lasts d: the
// continuation form of Proc.Sleep.
func (e *Engine) Delay(d time.Duration) Hold { return Hold{e: e, d: d} }

// Step advances the transaction: it returns false when k has been
// queued or scheduled (call Step again when k runs) and true once the
// span has elapsed and the resource is released.
func (h *Hold) Step(k Cont) bool {
	switch h.state {
	case 0:
		h.state = 1
		if h.r != nil && !h.r.AcquireCont(k) {
			return false
		}
		fallthrough
	case 1:
		// Holding: the span starts now, at the grant.
		h.state = 2
		if !h.e.WakeAt(h.e.now.Add(h.d), k) {
			return false
		}
		fallthrough
	case 2:
		h.state = 3
		if h.r != nil {
			h.r.Release()
		}
	}
	return true
}

// Do runs the transaction to completion from proc p, in a pooled
// record.
func (h Hold) Do(p *Proc) {
	if h.r == nil {
		p.SleepUntil(h.e.now.Add(h.d))
		return
	}
	rec := TakeNew(h.r.holds)
	*rec = h
	p.Await(rec)
	h.r.holds.Put(rec)
}
