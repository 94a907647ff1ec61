package sim

import (
	"fmt"
	"testing"
	"time"
)

// oneResume checks that a resume is followed by proc code: called
// wherever a proc's own code runs (at the start of its body and after
// each operation returns), it counts the times more than one proc
// resume happened since the last call, by any proc. A resume that no
// proc code follows woke a proc in the middle of an operation, only
// for it to wait again.
type oneResume struct {
	e     *Engine
	last  uint64
	extra int
}

func (c *oneResume) mark() {
	if c.e.resumes-c.last > 1 {
		c.extra++
	}
	c.last = c.e.resumes
}

// chainOp is one operation made of several holds and delays in turn,
// so it waits many times.
type chainOp struct {
	holds []Hold
	i     int
}

func (c *chainOp) Step(k Cont) bool {
	for ; c.i < len(c.holds); c.i++ {
		if !c.holds[c.i].Step(k) {
			return false
		}
	}
	return true
}

// haltWatch wraps an operation and counts its steps after Shutdown.
type haltWatch struct {
	op   Op
	late *int
	e    *Engine
}

func (w *haltWatch) Step(k Cont) bool {
	if w.e.Halted() {
		*w.late++
	}
	return w.op.Step(k)
}

// awaitResult is what one run of the await rig lets a test observe.
type awaitResult struct {
	log          []string // each finished operation: proc, index, instant, seq and event count
	events       uint64   // events fired by the end of the first run
	drained      uint64   // events fired once the queue drained after Shutdown
	lateSteps    int      // operation steps after Shutdown
	extraResumes int      // resumes no proc code followed (Await only)
}

// awaitRig runs procs, decoded from data, over two contended
// resources: data[0] picks how many, data[1] the instant of a Shutdown
// part-way (0: none), and every further byte is one operation of proc
// i%n — a delay, a hold on either resource through Await or through
// Hold.Do's pooled record, or a chain of holds and a delay that waits
// many times. With ref every operation runs in the park loop the
// procs used before Await.
func awaitRig(data []byte, ref bool) awaitResult {
	e := NewEngine(1)
	res := awaitResult{}
	chk := &oneResume{e: e}
	rs := [2]*Resource{NewResource(e, "r0"), NewResource(e, "r1")}
	n := 1 + int(data[0]%4)
	stop := Time(data[1]) * 15
	ops := make([][]byte, n)
	for i, b := range data[2:] {
		ops[i%n] = append(ops[i%n], b)
	}
	run := func(p *Proc, op Op) {
		op = &haltWatch{op: op, late: &res.lateSteps, e: e}
		if ref {
			parkLoop(p, op)
		} else {
			p.Await(op)
		}
	}
	for i := range ops {
		e.Go("a", func(p *Proc) {
			chk.mark()
			for j, b := range ops[i] {
				d := time.Duration(b>>3%8) * 10
				r := rs[b>>2&1]
				switch b & 3 {
				case 0:
					h := e.Delay(d)
					run(p, &h)
				case 1:
					h := r.Hold(d)
					run(p, &h)
				case 2:
					if ref {
						h := r.Hold(d)
						parkLoop(p, &h)
					} else {
						r.Use(p, d)
					}
				case 3:
					run(p, &chainOp{holds: []Hold{r.Hold(d), e.Delay(d / 2), rs[0].Hold(5), rs[1].Hold(d)}})
				}
				chk.mark()
				res.log = append(res.log, fmt.Sprintf("a%d.%d@%d s%d f%d", i, j, e.Now(), e.seq, e.fired))
			}
		})
	}
	if stop > 0 {
		e.RunUntil(stop)
	} else {
		e.Run()
	}
	res.events = e.Events()
	e.Shutdown()
	e.Run() // whatever was queued fires with every proc dead
	res.drained = e.Events()
	if !ref {
		res.extraResumes = chk.extra
	}
	return res
}

// checkAwait compares a program's Await run with its park-loop run.
func checkAwait(t *testing.T, data []byte) {
	t.Helper()
	want, got := awaitRig(data, true), awaitRig(data, false)
	if fmt.Sprint(got.log) != fmt.Sprint(want.log) {
		t.Fatalf("Await:\n%v\npark loop:\n%v", got.log, want.log)
	}
	if got.events != want.events || got.drained != want.drained {
		t.Fatalf("Await fired %d events, %d after draining; the park loop %d, %d", got.events, got.drained, want.events, want.drained)
	}
	if got.lateSteps != 0 || want.lateSteps != 0 {
		t.Fatalf("operations stepped after Shutdown: %d with Await, %d in the park loop", got.lateSteps, want.lateSteps)
	}
	if got.extraResumes != 0 {
		t.Fatalf("%d proc resumes in the middle of an awaited operation", got.extraResumes)
	}
}

// Await finishes every operation at the instant, and with the stamp,
// the park loop does, and resumes a proc only when its operation ends.
func TestAwaitMatchesPark(t *testing.T) {
	progs := [][]byte{
		// Three procs contend for both resources with chains.
		{2, 0, 0x0b, 0x13, 0x1b, 0x23, 0x2f, 0x0d, 0x15, 0x1f},
		// Delays only: most elide.
		{3, 0, 0x08, 0x10, 0x18, 0x20, 0x28, 0x30, 0x38},
		// Hold.Do's pooled records, two procs per resource.
		{3, 0, 0x0a, 0x0e, 0x12, 0x16, 0x1a, 0x1e, 0x22, 0x26},
		// A Shutdown while holds and chains still wait.
		{3, 4, 0x0b, 0x0f, 0x17, 0x1b, 0x23, 0x27, 0x2b, 0x2f, 0x09, 0x0d},
	}
	for _, data := range progs {
		checkAwait(t, data)
	}
}

// FuzzAwaitMatchesPark drives random mixes of delays, holds and
// contended chains, some cut short by a Shutdown, through Await and
// through the park loop.
func FuzzAwaitMatchesPark(f *testing.F) {
	f.Add([]byte{2, 0, 0x0b, 0x13, 0x1b, 0x23, 0x2f, 0x0d, 0x15, 0x1f})
	f.Add([]byte{3, 4, 0x0b, 0x0f, 0x17, 0x1b, 0x23, 0x27, 0x2b, 0x2f, 0x09, 0x0d})
	f.Add([]byte{1, 9, 0x0a, 0x0e, 0x12, 0x16, 0x1a, 0x1e, 0x22, 0x26})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 80 {
			return
		}
		checkAwait(t, data)
	})
}

// A pool hands out its reserve, makes records past it, and reuses every
// record put back: taking more than the reserve a second time makes
// nothing.
func TestPoolReusesRecordsPastReserve(t *testing.T) {
	e := NewEngine(1)
	pl := PoolOf[Hold](e)
	if PoolOf[Hold](e) != pl {
		t.Fatal("a second PoolOf made a second pool")
	}
	n := poolReserve + 3
	recs := make([]*Hold, n)
	cycle := func() {
		for i := range recs {
			recs[i] = TakeNew(pl)
		}
		for _, r := range recs {
			pl.Put(r)
		}
	}
	cycle()
	seen := map[*Hold]bool{}
	for i := range recs {
		recs[i] = TakeNew(pl)
		seen[recs[i]] = true
	}
	if len(seen) != n {
		t.Fatalf("%d distinct records among %d taken", len(seen), n)
	}
	for _, r := range recs {
		pl.Put(r)
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("%.1f allocations per take-and-put cycle of %d records", allocs, n)
	}
}
