package sim

// Chan is a bounded FIFO channel between simulated activities, the CSP
// analog for the simulation world. Send blocks while the channel is full,
// Recv blocks while it is empty; SendCont and RecvCont are their
// continuation forms, waiting in the same queues. A capacity of zero is not supported
// (rendezvous can be built from two capacity-1 channels when needed).
//
// The buffer is a fixed ring allocated at construction, so steady-state
// send/recv traffic allocates nothing.
type Chan[T any] struct {
	eng      *Engine
	buf      []T // fixed ring of len == capacity
	head     int // index of the oldest item
	count    int
	notEmpty *Cond
	notFull  *Cond
}

// NewChan returns a channel with the given capacity (which must be
// positive) bound to engine e.
func NewChan[T any](e *Engine, capacity int) *Chan[T] {
	if capacity <= 0 {
		panic("sim: channel capacity must be positive")
	}
	return &Chan[T]{
		eng:      e,
		buf:      make([]T, capacity),
		notEmpty: NewCond(e),
		notFull:  NewCond(e),
	}
}

// Len reports the number of buffered items.
func (c *Chan[T]) Len() int { return c.count }

// Full reports whether a Send would block.
func (c *Chan[T]) Full() bool { return c.count >= len(c.buf) }

// Empty reports whether a Recv would block.
func (c *Chan[T]) Empty() bool { return c.count == 0 }

// push appends v to the ring; the caller has checked for room.
func (c *Chan[T]) push(v T) {
	i := c.head + c.count
	if i >= len(c.buf) {
		i -= len(c.buf)
	}
	c.buf[i] = v
	c.count++
}

// pop removes and returns the oldest item; the caller has checked
// non-emptiness.
func (c *Chan[T]) pop() T {
	v := c.buf[c.head]
	var zero T
	c.buf[c.head] = zero
	c.head++
	if c.head >= len(c.buf) {
		c.head = 0
	}
	c.count--
	return v
}

// Send enqueues v, blocking p while the channel is full.
func (c *Chan[T]) Send(p *Proc, v T) {
	for !c.SendCont(v, p.Cont()) {
		p.block()
	}
}

// SendCont enqueues v and reports true if there is room; otherwise it
// queues k to run when room may have been made and reports false, and
// the caller tries again from k: the continuation form of Send.
func (c *Chan[T]) SendCont(v T, k Cont) bool {
	if c.TrySend(v) {
		return true
	}
	c.notFull.WaitCont(k)
	return false
}

// TrySend enqueues v if there is room and reports whether it did.
// It never blocks and may be called from event callbacks as well as procs.
func (c *Chan[T]) TrySend(v T) bool {
	if c.Full() {
		return false
	}
	c.push(v)
	c.notEmpty.Signal()
	return true
}

// Recv dequeues the oldest item, blocking p while the channel is empty.
func (c *Chan[T]) Recv(p *Proc) T {
	for {
		if v, ok := c.RecvCont(p.Cont()); ok {
			return v
		}
		p.block()
	}
}

// RecvCont dequeues the oldest item if one is buffered; otherwise it
// queues k to run when an item may have arrived and reports false, and
// the caller tries again from k: the continuation form of Recv.
func (c *Chan[T]) RecvCont(k Cont) (T, bool) {
	v, ok := c.TryRecv()
	if !ok {
		c.notEmpty.WaitCont(k)
	}
	return v, ok
}

// TryRecv dequeues the oldest item if one is buffered. It never blocks
// and may be called from event callbacks as well as procs.
func (c *Chan[T]) TryRecv() (T, bool) {
	var zero T
	if c.Empty() {
		return zero, false
	}
	v := c.pop()
	c.notFull.Signal()
	return v, true
}

// Peek returns the oldest item without removing it.
func (c *Chan[T]) Peek() (T, bool) {
	var zero T
	if c.Empty() {
		return zero, false
	}
	return c.buf[c.head], true
}
