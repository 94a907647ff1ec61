package hostsim

import (
	"time"

	"repro/internal/sim"
)

// This file keeps the proc bodies that Work and the interrupt service
// replaced, as the reference FuzzComputeMatchesProc and
// FuzzIRQServiceMatchesProc compare the continuation forms against.

// computeRef is Compute's proc body: acquire the CPU, then per
// ComputeChunk slice sleep the CPU-only part and hold the memory port
// for the rest, then release the CPU.
func computeRef(h *Host, p *sim.Proc, d time.Duration) {
	if d <= 0 {
		return
	}
	r := h.Prof.CPUMemTrafficRatio
	if r <= 0 {
		h.CPU.Use(p, d)
		return
	}
	p.Await(&acquireOp{r: h.CPU})
	chunk := h.Prof.ComputeChunk
	if chunk <= 0 {
		chunk = 2 * time.Microsecond
	}
	for d > 0 {
		c := chunk
		if c > d {
			c = d
		}
		memPart := time.Duration(float64(c) * r)
		if cpuPart := c - memPart; cpuPart > 0 {
			p.Sleep(cpuPart)
		}
		if memPart > 0 {
			h.Bus.CPUOccupy(memPart).Do(p)
		}
		d -= c
	}
	h.CPU.Release()
}

// acquireOp takes a resource, waiting in its queue: computeRef's CPU
// acquisition, one park as the proc's own acquire loop was.
type acquireOp struct {
	r     *sim.Resource
	asked bool
}

func (a *acquireOp) Step(k sim.Cont) bool {
	if a.asked {
		return true
	}
	a.asked = true
	return a.r.AcquireCont(k)
}

// irqRef is the interrupt controller whose every interrupt was a new
// proc: its body charges the kernel's service cost, re-arms the line,
// and runs the handler, which charged its own cost first.
type irqRef struct {
	h     *Host
	lines map[int]*irqRefLine
}

type irqRefLine struct {
	ic      *irqRef
	cost    time.Duration
	handler func()
	pending bool
	count   int64
	body    func(p *sim.Proc)
}

func newIRQRef(h *Host) *irqRef { return &irqRef{h: h, lines: make(map[int]*irqRefLine)} }

func (ic *irqRef) line(n int) *irqRefLine {
	l := ic.lines[n]
	if l == nil {
		l = &irqRefLine{ic: ic}
		l.body = l.service
		ic.lines[n] = l
	}
	return l
}

func (l *irqRefLine) service(p *sim.Proc) {
	h := l.ic.h
	computeRef(h, p, h.Prof.InterruptCost)
	l.pending = false
	if l.handler != nil {
		computeRef(h, p, l.cost)
		l.handler()
	}
}

func (ic *irqRef) Handle(line int, cost time.Duration, fn func()) {
	l := ic.line(line)
	l.cost, l.handler = cost, fn
}

func (ic *irqRef) Assert(line int) {
	l := ic.line(line)
	if l.pending {
		return
	}
	l.pending = true
	l.count++
	ic.h.Eng.Go("irq", l.body)
}

func (ic *irqRef) Count(line int) int64 {
	if l := ic.lines[line]; l != nil {
		return l.count
	}
	return 0
}
