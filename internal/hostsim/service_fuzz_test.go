package hostsim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// byteStream hands out the fuzz input one byte at a time, then zeros.
type byteStream []byte

func (s *byteStream) next() int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b)
}

// serviceResult is everything a run of the service rigs lets a test
// observe. Proc resumes are left out: taking them away is the point.
type serviceResult struct {
	Trace   []string
	Events  uint64
	Now     sim.Time
	CPUBusy time.Duration
	BusBusy time.Duration
	Counts  []int64
}

// rigProfile draws a machine: the serialized DECstation, whose CPU
// work holds the TURBOchannel for part of every slice, or the
// crossbar DEC 3000, whose CPU work is one span; then a slice length
// and, on the DECstation, a memory-traffic ratio.
func rigProfile(in *byteStream) Profile {
	prof := DEC3000_600()
	if in.next()&1 == 1 {
		prof = DEC5000_200()
		prof.CPUMemTrafficRatio = [...]float64{0.75, 0.3, 1, 0}[in.next()%4]
	}
	prof.ComputeChunk = time.Duration(in.next()%4) * 700 * time.Nanosecond // 0: the 2 µs default
	return prof
}

// span is one piece of a worker's program: a sleep, then CPU work.
type span struct{ gap, work time.Duration }

// rigSpans draws up to four spans, some of them empty.
func rigSpans(in *byteStream) []span {
	spans := make([]span, 1+in.next()%4)
	for i := range spans {
		spans[i] = span{
			gap:  time.Duration(in.next()%8) * 500 * time.Nanosecond,
			work: time.Duration(in.next()%16) * 700 * time.Nanosecond,
		}
	}
	return spans
}

// runSpans runs a worker's program from a proc, charging each span's
// work with compute and noting when it ends. mark is called wherever
// the proc's own code runs again.
func runSpans(p *sim.Proc, spans []span, compute func(*sim.Proc, time.Duration), note func(i int), mark func()) {
	mark()
	for i, sp := range spans {
		if sp.gap > 0 {
			p.Sleep(sp.gap)
			mark()
		}
		compute(p, sp.work)
		mark()
		note(i)
	}
}

// oneResume checks that every proc resume is followed by proc code:
// mark, called wherever a proc's own code runs, counts the times more
// than one resume happened since its last call, by any proc. A resume
// that no proc code follows woke a proc in the middle of an operation,
// only for it to wait again: a Compute resuming its proc per slice.
type oneResume struct {
	e     *sim.Engine
	last  uint64
	extra int
}

func (c *oneResume) mark() {
	if c.e.Resumes()-c.last > 1 {
		c.extra++
	}
	c.last = c.e.Resumes()
}

// contWorker runs a worker's program as a continuation, stepping Work
// itself: the state-machine use of Work, next to Compute's proc one.
type contWorker struct {
	h     *Host
	spans []span
	i     int
	slept bool
	w     Work
	k     sim.Cont
	note  func(i int)
}

func contWorkerStep(a any) {
	c := a.(*contWorker)
	e := c.h.Eng
	for c.i < len(c.spans) {
		if !c.slept {
			sp := c.spans[c.i]
			c.slept, c.w = true, c.h.Work(sp.work)
			if sp.gap > 0 && !e.WakeAt(e.Now().Add(sp.gap), c.k) {
				return
			}
		}
		if !c.w.Step(c.k) {
			return
		}
		c.note(c.i)
		c.i++
		c.slept = false
	}
}

// startDMA, when the input asks for it, starts a proc that streams DMA
// writes with gaps, contending for the TURBOchannel.
func startDMA(in *byteStream, h *Host, trace *[]string, mark func()) {
	if in.next()&1 == 0 {
		return
	}
	n, bytes := 1+in.next()%40, 4*(1+in.next()%22)
	gap := time.Duration(in.next()%4) * 200 * time.Nanosecond
	h.Eng.Go("dma", func(p *sim.Proc) {
		mark()
		for i := 0; i < n; i++ {
			h.Bus.DMAWrite(bytes).Do(p)
			mark()
			if gap > 0 {
				p.Sleep(gap)
				mark()
			}
		}
		*trace = append(*trace, fmt.Sprintf("%d dma done", p.Now()))
	})
}

// runComputeRig runs the Compute rig: workers charging CPU work while
// DMA contends for the bus. With ref every worker is a proc running
// computeRef; otherwise each runs Compute or, if the input says so,
// steps Work as a continuation. It also returns the resumes in the
// middle of an operation (oneResume), which only ref may make.
func runComputeRig(data []byte, ref bool) (serviceResult, int) {
	in := byteStream(data)
	e := sim.NewEngine(1)
	h := New(e, rigProfile(&in), 64)
	var res serviceResult
	chk := &oneResume{e: e}
	for id, n := 0, 1+in.next()%4; id < n; id++ {
		spans, asCont := rigSpans(&in), in.next()&1 == 1
		note := func(i int) { res.Trace = append(res.Trace, fmt.Sprintf("%d w%d span%d", e.Now(), id, i)) }
		switch {
		case ref:
			e.Go("worker", func(p *sim.Proc) {
				runSpans(p, spans, func(p *sim.Proc, d time.Duration) { computeRef(h, p, d) }, note, chk.mark)
			})
		case asCont:
			c := &contWorker{h: h, spans: spans, note: note}
			c.k = sim.Cont{Fn: contWorkerStep, Arg: c}
			e.AtCall(e.Now(), contWorkerStep, c)
		default:
			e.Go("worker", func(p *sim.Proc) { runSpans(p, spans, h.Compute, note, chk.mark) })
		}
	}
	startDMA(&in, h, &res.Trace, chk.mark)
	e.Run()
	e.Shutdown()
	res.Events, res.Now = e.Events(), e.Now()
	res.CPUBusy, res.BusBusy = h.CPU.BusyTime(), h.Bus.BusyTime()
	return res, chk.extra
}

// FuzzComputeMatchesProc checks Work, run from procs by Compute and
// stepped by continuations, against the proc body it replaced: every
// span ends at the same instant, with the same event count and the
// same CPU and bus busy time, and Compute resumes its proc at most
// once, when the work is done.
func FuzzComputeMatchesProc(f *testing.F) {
	f.Add([]byte{1, 0, 0, 3, 1, 7, 2, 15, 0, 3, 0, 1, 1, 2, 1, 30, 10, 1})
	f.Add([]byte{1, 2, 3, 2, 2, 4, 3, 9, 1, 5, 0, 11, 2, 3, 1, 12, 0, 0, 1, 39, 21, 0})
	f.Add([]byte{0, 1, 2, 3, 0, 15, 0, 15, 0, 15, 1, 0, 2, 0, 6, 1, 0, 5})
	f.Add([]byte{1, 1, 0, 1, 0, 3, 1, 1, 7, 1, 1, 0, 1, 20, 5, 3})
	// Computes that wait more than once: a proc stepping Work itself
	// would be resumed in the middle of them.
	f.Add([]byte{56, 54, 55, 53, 56, 27, 15, 37, 12, 41, 55, 61, 18})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			return
		}
		want, _ := runComputeRig(data, true)
		got, extra := runComputeRig(data, false)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Work diverges from the proc body\n got %+v\nwant %+v", got, want)
		}
		if extra != 0 {
			t.Fatalf("%d proc resumes in the middle of a Compute", extra)
		}
	})
}

// interrupts is what the IRQ rig needs of an interrupt controller, so
// one rig drives IntController and the proc-per-interrupt reference.
type interrupts interface {
	Handle(line int, cost time.Duration, fn func())
	Assert(line int)
	Count(line int) int64
}

// irqRigLines is the number of lines the rig asserts; the last has no
// handler.
const irqRigLines = 4

// runIRQRig runs the interrupt rig: asserts on four lines at random
// instants, close enough to land during the kernel's service and the
// handler's own cost; handlers that wake a driver thread, which
// charges CPU work of its own; CPU-bound workers and DMA contending
// for the CPU and the bus; and, if the input says so, a Shutdown
// part-way, after which nothing more may run. With ref the controller
// is the proc-per-interrupt reference and every CPU charge is
// computeRef.
func runIRQRig(data []byte, ref bool) serviceResult {
	in := byteStream(data)
	e := sim.NewEngine(1)
	h := New(e, rigProfile(&in), 64)
	compute := h.Compute
	var ic interrupts = h.Int
	if ref {
		compute = func(p *sim.Proc, d time.Duration) { computeRef(h, p, d) }
		ic = newIRQRef(h)
	}
	var res serviceResult
	wake := sim.NewCond(e)
	for line := 0; line < irqRigLines-1; line++ {
		cost := time.Duration(in.next()%8) * 1500 * time.Nanosecond
		ic.Handle(line, cost, func() {
			res.Trace = append(res.Trace, fmt.Sprintf("%d irq %d", e.Now(), line))
			wake.Broadcast()
		})
	}
	thread := time.Duration(in.next()%8) * time.Microsecond
	e.Go("thread", func(p *sim.Proc) {
		for {
			wake.Wait(p)
			compute(p, thread)
			res.Trace = append(res.Trace, fmt.Sprintf("%d thread", p.Now()))
		}
	})
	var at sim.Time
	for i, n := 0, in.next()%24; i < n; i++ {
		at = at.Add(time.Duration(in.next()%16) * 5 * time.Microsecond)
		line := in.next() % irqRigLines
		// The board raises interrupts from continuations that stop
		// at Shutdown.
		e.At(at, func() {
			if !e.Halted() {
				ic.Assert(line)
			}
		})
	}
	for id, n := 0, in.next()%3; id < n; id++ {
		spans := rigSpans(&in)
		e.Go("worker", func(p *sim.Proc) {
			runSpans(p, spans, compute, func(i int) {
				res.Trace = append(res.Trace, fmt.Sprintf("%d w%d span%d", e.Now(), id, i))
			}, func() {})
		})
	}
	startDMA(&in, h, &res.Trace, func() {})
	if cut := in.next(); cut != 0 {
		e.RunUntil(sim.Time(cut) * sim.Time(4*time.Microsecond))
		e.Shutdown()
		e.Run()
	} else {
		e.Run()
		e.Shutdown()
	}
	res.Events, res.Now = e.Events(), e.Now()
	res.CPUBusy, res.BusBusy = h.CPU.BusyTime(), h.Bus.BusyTime()
	for line := 0; line < irqRigLines; line++ {
		res.Counts = append(res.Counts, ic.Count(line))
	}
	return res
}

// FuzzIRQServiceMatchesProc checks the interrupt service, a pooled
// continuation, against the proc per interrupt it replaced: the same
// handler runs at the same instants, with the same event count, the
// same CPU and bus busy time and the same assert counts.
func FuzzIRQServiceMatchesProc(f *testing.F) {
	// Input: machine; three handler costs; the thread's cost; the
	// asserts as (gap, line) pairs; workers as spans; DMA; the cut.
	//
	// Crossbar host: line 0 re-asserted at 25 µs, while its first
	// service still charges the handler's 10.5 µs, so two services of
	// it overlap.
	f.Add([]byte{0, 0, 7, 2, 0, 3, 3, 0, 0, 5, 0, 10, 1, 0, 0, 0})
	// Serialized host: a burst of asserts on every line under two
	// CPU-bound workers and a DMA stream.
	f.Add([]byte{1, 0, 0, 4, 7, 1, 5, 6, 0, 0, 3, 1, 8, 0, 15, 2, 2, 0, 4, 3, 2, 3, 2, 9, 1, 15, 0, 7, 3, 4, 1, 5, 12, 1, 3, 1, 39, 10, 1, 0})
	// Shut down at 160 µs, part-way through a burst of services.
	f.Add([]byte{1, 0, 1, 2, 3, 7, 4, 8, 0, 0, 2, 1, 2, 2, 4, 0, 3, 1, 1, 2, 6, 0, 2, 1, 0, 1, 30, 5, 2, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			return
		}
		want, got := runIRQRig(data, true), runIRQRig(data, false)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("interrupt service diverges from the proc reference\n got %+v\nwant %+v", got, want)
		}
	})
}

// A line asserted again while its previous service is still charging
// the handler's cost starts a second service, which waits for the CPU
// and runs the handler again.
func TestInterruptReassertDuringHandlerCost(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	h := New(e, DEC3000_600(), 64) // 20 µs service, no memory-port slices
	var ran []sim.Time
	h.Int.Handle(5, 10*time.Microsecond, func() { ran = append(ran, e.Now()) })
	e.At(0, func() { h.Int.Assert(5) })
	e.At(sim.Time(25*time.Microsecond), func() { h.Int.Assert(5) })
	e.Run()
	want := []sim.Time{sim.Time(30 * time.Microsecond), sim.Time(60 * time.Microsecond)}
	if !reflect.DeepEqual(ran, want) || h.Int.Count(5) != 2 {
		t.Fatalf("handler ran at %v, count %d; want %v, 2", ran, h.Int.Count(5), want)
	}
}
