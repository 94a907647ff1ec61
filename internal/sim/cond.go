package sim

// Cond is a condition variable for simulated activities. It follows the
// monitor discipline: a waiter re-checks its predicate in a loop because
// Signal only makes it runnable, it does not convey which condition
// became true.
//
// Wakeups are delivered through the event queue at the current virtual
// time, preserving determinism: if several waiters are signalled at the
// same instant they run in signal order. Procs (Wait) and continuations
// (WaitCont) share one FIFO queue.
type Cond struct {
	eng     *Engine
	waiters []Cont
}

// NewCond returns a condition variable bound to engine e.
func NewCond(e *Engine) *Cond { return &Cond{eng: e} }

// Wait suspends p until another activity calls Signal or Broadcast.
// Waiting consumes no virtual time beyond the wakeup scheduling point.
func (c *Cond) Wait(p *Proc) {
	c.WaitCont(p.Cont())
	p.block()
}

// WaitCont queues k to be scheduled by the Signal or Broadcast that
// reaches it: the continuation form of Wait.
func (c *Cond) WaitCont(k Cont) { c.waiters = append(c.waiters, k) }

// Signal wakes the longest waiter, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	k := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters[len(c.waiters)-1] = Cont{}
	c.waiters = c.waiters[:len(c.waiters)-1]
	c.eng.wake(c.eng.now, k)
}

// Broadcast wakes all waiters in FIFO order.
func (c *Cond) Broadcast() {
	for i, k := range c.waiters {
		c.eng.wake(c.eng.now, k)
		c.waiters[i] = Cont{}
	}
	c.waiters = c.waiters[:0]
}

// Waiting reports the number of activities currently blocked on c.
func (c *Cond) Waiting() int { return len(c.waiters) }
