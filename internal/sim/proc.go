// iter.Pull (runtime coroutines) is stdlib from Go 1.23, while the
// module's go directive stays at 1.22 so the benchmark module that
// pins 1.22 keeps building against it; this constraint raises the
// language version for this file alone.

//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"time"
)

// killedError is the panic value used to unwind a Proc when the engine
// shuts down while the proc is blocked.
type killedError struct{ name string }

func (k killedError) Error() string { return "sim: proc " + k.name + " killed at shutdown" }

// Proc is a simulated sequential process. Its body runs on a runtime
// coroutine (iter.Pull), not on a goroutine the Go scheduler
// interleaves: the engine switches into the body directly and the body
// switches straight back when it sleeps, waits on a Cond, or returns.
// So at most one proc runs at a time, on the engine's own thread of
// control, and execution order is fully determined by the event queue.
type Proc struct {
	eng      *Engine
	name     string
	fn       func(p *Proc)
	w        *worker // coroutine running the body; nil once done
	done     bool
	panicVal any // non-nil if the body panicked; re-raised on the engine goroutine
}

// worker is a pooled coroutine that runs proc bodies one after another.
// Between bodies it parks at a yield in loop; binding a new proc and
// calling next starts that proc's body without creating a coroutine, so
// a short-lived proc (an interrupt handler) costs one Proc allocation.
type worker struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // proc currently bound; nil while idle
}

// Go spawns a simulated process whose body is fn. The body starts at the
// current virtual time (it is scheduled through the event queue like any
// other event). The returned Proc may be passed to blocking primitives
// only from within fn itself.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, fn: fn}
	var w *worker
	if n := len(e.idle); n > 0 {
		w = e.idle[n-1]
		e.idle = e.idle[:n-1]
	} else {
		w = &worker{}
		w.next, w.stop = iter.Pull(w.loop)
		e.workers = append(e.workers, w)
	}
	w.p = p
	p.w = w
	e.AtCall(e.now, resumeProc, p)
	return p
}

// resumeProc is the closure-free wakeup callback shared by every proc
// scheduling point: Sleep, Cond signals, Resource handoff, channel
// operations. A *Proc boxed into any stores a pointer, so scheduling a
// wakeup with AtCall(t, resumeProc, p) allocates nothing.
func resumeProc(a any) { a.(*Proc).resume() }

// loop is the worker's coroutine body: run the bound proc, then park
// until the engine binds the next one. It returns when stop is called,
// which makes yield report false.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		w.p.run()
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the body to completion. A panic is stashed for resume to
// re-raise on the engine goroutine, so the failure surfaces in the
// caller's stack and the worker survives to run the next body. A
// runtime.Goexit in the body (t.FailNow) cannot be stopped: iter.Pull
// propagates it to the goroutine driving the engine, and the worker
// dies with it.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedError); !ok {
				p.panicVal = r
			}
		}
		p.done = true
		p.fn = nil
	}()
	p.fn(p)
}

// Name returns the name given to Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// resume switches into the proc and returns when it yields or finishes;
// a finished proc's worker goes back to the engine's idle pool. Called
// only from engine context (event callbacks).
func (p *Proc) resume() {
	if p.done {
		return
	}
	w := p.w
	w.next()
	if p.done {
		p.w, w.p = nil, nil
		p.eng.idle = append(p.eng.idle, w)
	}
	if p.panicVal != nil {
		v := p.panicVal
		p.panicVal = nil
		panic(v)
	}
}

// block switches back to the engine and returns when the proc is
// resumed. Once the engine has shut down, every block panics with
// killedError, so a killed body unwinds through its deferred calls and
// a deferred call that blocks is cut short at that point. Called only
// from proc context.
func (p *Proc) block() {
	if !p.w.yield(struct{}{}) {
		panic(killedError{p.name})
	}
}

// Sleep suspends the proc for d of virtual time.
//
// A zero-length sleep is a scheduling point: any event already queued
// at the current instant runs before Sleep returns. When no such event
// exists (and no Stop is pending), the proc's wakeup would be the very
// next event executed, so Sleep returns immediately instead of paying
// the event and the coroutine switch — the simulated behaviour is
// identical either way.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: proc %s: negative sleep %v", p.name, d))
	}
	if d == 0 {
		if p.eng.quietNow() {
			return
		}
		p.eng.AtCall(p.eng.now, resumeProc, p)
		p.block()
		return
	}
	p.eng.AtCall(p.eng.now.Add(d), resumeProc, p)
	p.block()
}

// SleepUntil suspends the proc until instant t (a no-op scheduling point
// if t is not after the current time, with the same fast path as a
// zero-length Sleep).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.eng.now {
		if p.eng.quietNow() {
			return
		}
		t = p.eng.now
	}
	p.eng.AtCall(t, resumeProc, p)
	p.block()
}

// Done reports whether the proc body has returned.
func (p *Proc) Done() bool { return p.done }
