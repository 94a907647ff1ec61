package sim

import (
	"testing"
	"time"
)

func TestResourceSerializesHolders(t *testing.T) {
	e := NewEngine(1)
	bus := NewResource(e, "bus")
	var doneA, doneB Time
	e.Go("a", func(p *Proc) {
		bus.Use(p, 100*time.Nanosecond)
		doneA = p.Now()
	})
	e.Go("b", func(p *Proc) {
		bus.Use(p, 100*time.Nanosecond)
		doneB = p.Now()
	})
	e.Run()
	e.Shutdown()
	if doneA != 100 {
		t.Errorf("a done at %v, want 100", doneA)
	}
	if doneB != 200 {
		t.Errorf("b done at %v, want 200 (serialized after a)", doneB)
	}
}

func TestResourceFIFOArbitration(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r")
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Go(name, func(p *Proc) {
			acquire(p, r)
			p.Sleep(10 * time.Nanosecond)
			order = append(order, name)
			r.Release()
		})
	}
	e.Run()
	e.Shutdown()
	want := []string{"w1", "w2", "w3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestResourceNoContentionNoDelay(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r")
	var done Time
	e.Go("solo", func(p *Proc) {
		r.Use(p, 50*time.Nanosecond)
		p.Sleep(50 * time.Nanosecond)
		r.Use(p, 50*time.Nanosecond)
		done = p.Now()
	})
	e.Run()
	e.Shutdown()
	if done != 150 {
		t.Errorf("done at %v, want 150", done)
	}
}

func TestResourceBusyTime(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r")
	e.Go("a", func(p *Proc) {
		r.Use(p, 100*time.Nanosecond)
		p.Sleep(100 * time.Nanosecond)
		r.Use(p, 50*time.Nanosecond)
	})
	e.Run()
	e.Shutdown()
	if r.BusyTime() != 150*time.Nanosecond {
		t.Errorf("BusyTime = %v, want 150ns", r.BusyTime())
	}
	r.ResetStats()
	if r.BusyTime() != 0 {
		t.Errorf("BusyTime after reset = %v, want 0", r.BusyTime())
	}
}

func TestResourceReleaseWhenFreePanics(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r")
	defer func() {
		if recover() == nil {
			t.Error("Release of free resource did not panic")
		}
	}()
	r.Release()
}

func TestResourceHeldAndQueueLen(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r")
	if r.Held() {
		t.Error("fresh resource held")
	}
	e.Go("holder", func(p *Proc) {
		acquire(p, r)
		p.Sleep(100 * time.Nanosecond)
		if r.QueueLen() != 1 {
			t.Errorf("QueueLen = %d, want 1", r.QueueLen())
		}
		r.Release()
	})
	e.Go("waiter", func(p *Proc) {
		p.Sleep(10 * time.Nanosecond)
		acquire(p, r)
		r.Release()
	})
	e.At(50, func() {
		if !r.Held() {
			t.Error("resource not held at t=50")
		}
	})
	e.Run()
	e.Shutdown()
	if r.Held() {
		t.Error("resource still held at end")
	}
}

func TestResourceHandoffPreservesTiming(t *testing.T) {
	// Three 100ns transactions arriving at t=0 must finish at 100/200/300:
	// FIFO queueing with zero arbitration gap.
	e := NewEngine(1)
	r := NewResource(e, "bus")
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Go("p", func(p *Proc) {
			r.Use(p, 100*time.Nanosecond)
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	e.Shutdown()
	want := []Time{100, 200, 300}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

// acquire blocks p until it holds r.
func acquire(p *Proc, r *Resource) {
	if !r.AcquireCont(p.Cont()) {
		p.block()
	}
}
