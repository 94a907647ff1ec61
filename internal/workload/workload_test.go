package workload

import "testing"

func TestTable1Sizes(t *testing.T) {
	got := Table1Sizes()
	want := []int{1, 1024, 2048, 4096}
	if len(got) != len(want) {
		t.Fatalf("sizes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sizes = %v", got)
		}
	}
}

func TestFigureSizes(t *testing.T) {
	got := FigureSizes()
	if got[0] != 1024 || got[len(got)-1] != 256*1024 {
		t.Errorf("figure sizes = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]*2 {
			t.Errorf("not doubling: %v", got)
		}
	}
}

func TestDoubling(t *testing.T) {
	got := Doubling(8, 64)
	want := []int{8, 16, 32, 64}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Doubling = %v", got)
		}
	}
}

func TestPayloadDeterministicAndDistinct(t *testing.T) {
	a := Payload(1000, 1)
	b := Payload(1000, 1)
	c := Payload(1000, 2)
	if string(a) != string(b) {
		t.Error("same seed differs")
	}
	if string(a) == string(c) {
		t.Error("different seeds identical")
	}
	if len(Payload(0, 1)) != 0 {
		t.Error("zero-length payload")
	}
}

func TestDefaultPriorityMix(t *testing.T) {
	m := DefaultPriorityMix()
	if m.HighPriority <= m.LowPriority {
		t.Error("priorities inverted")
	}
	if m.MessageBytes == 0 || m.Messages == 0 {
		t.Error("empty mix")
	}
}

func TestFanInPayloadVerifyRoundTrip(t *testing.T) {
	f := DefaultFanIn()
	for _, id := range [][2]int{{0, 0}, {3, 5}, {f.Clients - 1, f.Messages - 1}} {
		p := f.Payload(id[0], id[1])
		if len(p) != f.MessageBytes {
			t.Fatalf("payload length %d", len(p))
		}
		client, msg, ok := f.Verify(p)
		if !ok || client != id[0] || msg != id[1] {
			t.Errorf("Verify(Payload(%d,%d)) = %d,%d,%v", id[0], id[1], client, msg, ok)
		}
	}
}

func TestFanInPayloadsDistinct(t *testing.T) {
	f := DefaultFanIn()
	if string(f.Payload(0, 0)) == string(f.Payload(1, 0)) {
		t.Error("different clients share a payload")
	}
	if string(f.Payload(0, 0)) == string(f.Payload(0, 1)) {
		t.Error("different messages share a payload")
	}
}

func TestFanInVerifyRejectsDamage(t *testing.T) {
	f := DefaultFanIn()
	if _, _, ok := f.Verify(nil); ok {
		t.Error("nil verified")
	}
	if _, _, ok := f.Verify(make([]byte, 3)); ok {
		t.Error("short payload verified")
	}
	p := f.Payload(2, 3)
	p[f.MessageBytes/2] ^= 1
	if _, _, ok := f.Verify(p); ok {
		t.Error("flipped bit verified")
	}
	if _, _, ok := f.Verify(f.Payload(2, 3)[:100]); ok {
		t.Error("truncated payload verified")
	}
	q := f.Payload(0, 0)
	q[3] = 200 // client index out of range
	if _, _, ok := f.Verify(q); ok {
		t.Error("out-of-range identity verified")
	}
}

// TestFanInVerifyInPlace: Verify generates the expected bytes as it
// compares, so it allocates nothing, yet still rejects a wrong length
// and a one-byte change anywhere. Changing the low bit of the client or
// message id leaves the identity in range, so only the body comparison
// can catch it. PayloadInto rebuilds a message in a dirty buffer.
func TestFanInVerifyInPlace(t *testing.T) {
	f := DefaultFanIn()
	p := f.Payload(2, 3)
	if allocs := testing.AllocsPerRun(100, func() { f.Verify(p) }); allocs != 0 {
		t.Errorf("Verify: %v allocations, want 0", allocs)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"one byte long", append(f.Payload(2, 3), 0)},
		{"one byte short", p[:len(p)-1]},
		{"client id", flip(p, 3)},
		{"message id", flip(p, 7)},
		{"first body byte", flip(p, FanInHeaderBytes)},
		{"body", flip(p, len(p)/2)},
		{"last byte", flip(p, len(p)-1)},
	} {
		if client, msg, ok := f.Verify(c.data); ok {
			t.Errorf("%s: verified as client %d message %d", c.name, client, msg)
		}
	}
	dirty := make([]byte, f.MessageBytes+10)
	for i := range dirty {
		dirty[i] = 0xDE
	}
	if got := f.PayloadInto(dirty, 2, 3); string(got) != string(p) || &got[0] != &dirty[0] {
		t.Error("PayloadInto did not rebuild the message in place")
	}
}

// flip returns a copy of b with the low bit of byte i inverted.
func flip(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 1
	return out
}

func TestFanInTotalBytes(t *testing.T) {
	f := FanIn{Clients: 3, MessageBytes: 100, Messages: 4}
	if f.TotalBytes() != 1200 {
		t.Errorf("TotalBytes = %d", f.TotalBytes())
	}
}
