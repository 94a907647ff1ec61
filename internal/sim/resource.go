package sim

import "time"

// Resource models a resource that at most one activity may hold at a
// time, with FIFO arbitration — a bus, a memory port, a DMA engine.
// Procs (Hold.Do, Use) and continuations (AcquireCont) wait in one
// queue. It also accumulates busy time so utilization can be reported.
type Resource struct {
	eng       *Engine
	name      string
	held      bool
	queue     []Cont
	busySince Time
	busyTotal time.Duration
	holds     *Pool[*Hold] // records of the Holds procs await (Hold.Do)
}

// NewResource returns a free resource bound to engine e.
func NewResource(e *Engine, name string) *Resource {
	return &Resource{eng: e, name: name, holds: PoolOf[Hold](e)}
}

// AcquireCont takes the resource and reports true if it is free;
// otherwise it queues k, which the Release that hands the resource
// over schedules, and reports false. Waiters are served in FIFO order,
// and the Release that schedules k has already made the resource k's.
func (r *Resource) AcquireCont(k Cont) bool {
	if r.held {
		r.queue = append(r.queue, k)
		return false
	}
	r.held = true
	r.busySince = r.eng.now
	return true
}

// Release frees the resource or hands it to the longest waiter.
func (r *Resource) Release() {
	if !r.held {
		panic("sim: Release of free resource " + r.name)
	}
	r.busyTotal += time.Duration(r.eng.now - r.busySince)
	if len(r.queue) == 0 {
		r.held = false
		return
	}
	next := r.queue[0]
	copy(r.queue, r.queue[1:])
	r.queue[len(r.queue)-1] = Cont{}
	r.queue = r.queue[:len(r.queue)-1]
	r.busySince = r.eng.now
	r.eng.wake(r.eng.now, next)
}

// Use acquires the resource, holds it for d of virtual time, and
// releases it: the proc form of Hold, the common pattern for a priced
// bus transaction.
func (r *Resource) Use(p *Proc, d time.Duration) { r.Hold(d).Do(p) }

// Held reports whether the resource is currently held.
func (r *Resource) Held() bool { return r.held }

// QueueLen reports the number of activities waiting for the resource.
func (r *Resource) QueueLen() int { return len(r.queue) }

// BusyTime returns the total virtual time the resource has been held.
// If the resource is currently held the in-progress hold is included.
func (r *Resource) BusyTime() time.Duration {
	total := r.busyTotal
	if r.held {
		total += time.Duration(r.eng.now - r.busySince)
	}
	return total
}

// ResetStats zeroes the accumulated busy time (the current hold, if any,
// is accounted from now).
func (r *Resource) ResetStats() {
	r.busyTotal = 0
	r.busySince = r.eng.now
}
