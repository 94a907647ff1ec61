package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestChanFIFOOrder(t *testing.T) {
	e := NewEngine(1)
	ch := NewChan[int](e, 4)
	var got []int
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			ch.Send(p, i)
			p.Sleep(time.Nanosecond)
		}
	})
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			got = append(got, ch.Recv(p))
		}
	})
	e.Run()
	e.Shutdown()
	if len(got) != 10 {
		t.Fatalf("received %d items, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want ascending", got)
		}
	}
}

func TestChanSendBlocksWhenFull(t *testing.T) {
	e := NewEngine(1)
	ch := NewChan[int](e, 2)
	var thirdSentAt Time
	e.Go("producer", func(p *Proc) {
		ch.Send(p, 1)
		ch.Send(p, 2)
		ch.Send(p, 3) // blocks until consumer drains at t=1µs
		thirdSentAt = p.Now()
	})
	e.Go("consumer", func(p *Proc) {
		p.Sleep(time.Microsecond)
		ch.Recv(p)
	})
	e.Run()
	e.Shutdown()
	if thirdSentAt != Time(time.Microsecond) {
		t.Errorf("third send completed at %v, want 1µs (after a recv)", thirdSentAt)
	}
}

func TestChanRecvBlocksWhenEmpty(t *testing.T) {
	e := NewEngine(1)
	ch := NewChan[string](e, 1)
	var gotAt Time
	var got string
	e.Go("consumer", func(p *Proc) {
		got = ch.Recv(p)
		gotAt = p.Now()
	})
	e.Go("producer", func(p *Proc) {
		p.Sleep(3 * time.Microsecond)
		ch.Send(p, "hi")
	})
	e.Run()
	e.Shutdown()
	if got != "hi" || gotAt != Time(3*time.Microsecond) {
		t.Errorf("got %q at %v, want hi at 3µs", got, gotAt)
	}
}

func TestChanTrySendTryRecv(t *testing.T) {
	e := NewEngine(1)
	ch := NewChan[int](e, 1)
	if _, ok := ch.TryRecv(); ok {
		t.Error("TryRecv on empty chan succeeded")
	}
	if !ch.TrySend(7) {
		t.Error("TrySend on empty chan failed")
	}
	if ch.TrySend(8) {
		t.Error("TrySend on full chan succeeded")
	}
	if v, ok := ch.Peek(); !ok || v != 7 {
		t.Errorf("Peek = %v,%v want 7,true", v, ok)
	}
	if v, ok := ch.TryRecv(); !ok || v != 7 {
		t.Errorf("TryRecv = %v,%v want 7,true", v, ok)
	}
	if _, ok := ch.Peek(); ok {
		t.Error("Peek on empty chan succeeded")
	}
}

func TestChanLenCapFullEmpty(t *testing.T) {
	e := NewEngine(1)
	ch := NewChan[int](e, 3)
	if ch.Len() != 0 || !ch.Empty() || ch.Full() {
		t.Fatal("fresh chan state wrong")
	}
	ch.TrySend(1)
	ch.TrySend(2)
	ch.TrySend(3)
	if ch.Len() != 3 || !ch.Full() || ch.Empty() || ch.TrySend(4) {
		t.Fatal("full chan state wrong")
	}
}

func TestChanZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewChan(0) did not panic")
		}
	}()
	NewChan[int](NewEngine(1), 0)
}

// Property: for any sequence of values pushed through a small channel by
// a producer/consumer pair, the consumer sees exactly the produced
// sequence.
func TestChanPreservesSequenceQuick(t *testing.T) {
	f := func(values []uint16, capSeed uint8) bool {
		capacity := int(capSeed)%8 + 1
		e := NewEngine(1)
		ch := NewChan[uint16](e, capacity)
		var got []uint16
		e.Go("producer", func(p *Proc) {
			for _, v := range values {
				ch.Send(p, v)
			}
		})
		e.Go("consumer", func(p *Proc) {
			for range values {
				got = append(got, ch.Recv(p))
			}
		})
		e.Run()
		e.Shutdown()
		if len(got) != len(values) {
			return false
		}
		for i := range values {
			if got[i] != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
