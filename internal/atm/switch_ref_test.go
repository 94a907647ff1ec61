package atm

import "repro/internal/sim"

// The per-cell queue/arbiter machine, kept as the switch's reference:
// where train forwarding (Switch.trainForward) computes each cell's
// future arithmetically, this machine runs it event by event, with a
// bounded FIFO per output port and an egress arbiter that sends each
// cell on the lane it arrived on. It admits through the switch's own
// Switch.admit, counts Forwarded in the port's stats and feeds the
// port's queue-delay sketch, so the two machines must agree on every
// delivery, counter, metric and trace event (FuzzSwitchTrain).

// laneCell is a queued cell record tagged with its stripe lane and its
// enqueue instant.
type laneCell struct {
	c    *Cell
	lane int
	enq  sim.Time
}

// refPort is one output port's per-cell machine. The arbiter is the
// continuation k: it holds cur, popped off the queue, while sending is
// set.
type refPort struct {
	pt      *SwitchPort
	queue   *sim.Chan[laneCell]
	k       sim.Cont // (arbiterStep, the port)
	cur     laneCell
	sending bool
	blocked int // sends that found their lane's transmit FIFO full
}

// refSwitch is a switch whose output ports run the per-cell machine.
type refSwitch struct {
	sw    *Switch
	ports []*refPort
}

// perCellFabric puts every output port of sw, fresh from NewSwitch, on
// the per-cell machine: each ingress group delivers to forward instead
// of the train path, and each port's arbiter waits on its queue from
// here on.
func perCellFabric(sw *Switch) *refSwitch {
	r := &refSwitch{sw: sw}
	for i, pt := range sw.ports {
		rp := &refPort{pt: pt, queue: sim.NewChan[laneCell](sw.eng, sw.cfg.QueueCells)}
		rp.k = sim.Cont{Fn: arbiterStep, Arg: rp}
		r.ports = append(r.ports, rp)
		in := i
		pt.in.SetCellReceiver(func(c *Cell, lane int) { r.forward(in, c, lane) })
		arbiterStep(rp)
	}
	return r
}

// forward is Switch.forward on the per-cell machine: route the cell,
// then admit it to the output port's queue or drop it.
func (r *refSwitch) forward(inPort int, c *Cell, lane int) {
	op := r.sw.route(inPort, c)
	if op == nil {
		return
	}
	rp := r.ports[op.index]
	if r.sw.admit(op, c, rp.queue.Len()) {
		rp.queue.TrySend(laneCell{c: c, lane: lane, enq: r.sw.eng.Now()})
	}
}

// blocked sums the sends every arbiter found blocked on a full lane.
func (r *refSwitch) blocked() int {
	n := 0
	for _, rp := range r.ports {
		n += rp.blocked
	}
	return n
}

// arbiterStep is a port's egress arbiter, an event continuation: cells
// leave the bounded queue in strict FIFO arrival order (no per-flow
// scheduling) and are serialized onto the lane they arrived on. A send
// waits while that lane's transmit FIFO is full, so a congested lane
// backpressures the queue — head-of-line blocking included, as in a
// real FIFO output port. Once the engine is shut down it does nothing,
// as a killed process would.
func arbiterStep(a any) {
	rp := a.(*refPort)
	pt := rp.pt
	if pt.eng.Halted() {
		return
	}
	for {
		if !rp.sending {
			lc, ok := rp.queue.RecvCont(rp.k)
			if !ok {
				return
			}
			if pt.mQDelay != nil {
				pt.mQDelay.Observe((pt.eng.Now() - lc.enq).Microseconds())
			}
			if pt.eng.Recording() {
				pt.eng.Emit(sim.TraceEvent{At: pt.eng.Now(), Ph: 'C', Comp: pt.comp, Cat: sim.CatQueue, Name: "queue", Arg: int64(rp.queue.Len())})
			}
			rp.cur, rp.sending = lc, true
		}
		if !pt.out.Link(rp.cur.lane).SendCont(rp.cur.c, rp.k) {
			rp.blocked++
			return
		}
		rp.cur.c, rp.sending = nil, false
		pt.stats.Forwarded++
	}
}
