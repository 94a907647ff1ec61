package workload

import (
	"encoding/binary"
	"testing"
)

// refPayload is the byte-at-a-time payload generator: byte k is the top
// byte of the LCG state after k+1 steps. fillPayload and Verify step
// four bytes at a time and must match it exactly.
func refPayload(n int, seed byte) []byte {
	out := make([]byte, n)
	g := uint32(seed)*2654435761 + 1
	for i := range out {
		g = g*1664525 + 1013904223
		out[i] = byte(g >> 24)
	}
	return out
}

// FuzzPayloadMatchesByteGenerator checks the four-lane generator against
// refPayload at any length and seed: Payload must equal it, Verify must
// accept a message built from it, and Verify must reject that message
// with any one body byte changed.
func FuzzPayloadMatchesByteGenerator(f *testing.F) {
	f.Add(uint16(0), byte(0), uint16(0), byte(1))
	f.Add(uint16(9), byte(1), uint16(0), byte(0x80))
	f.Add(uint16(1027), byte(200), uint16(1018), byte(1))
	f.Add(uint16(16384), byte(57), uint16(7), byte(0xFF))
	f.Fuzz(func(t *testing.T, n uint16, seed byte, at uint16, mask byte) {
		ref := refPayload(int(n), seed)
		if got := Payload(int(n), seed); string(got) != string(ref) {
			t.Fatalf("Payload(%d, %d) differs from the byte generator", n, seed)
		}
		if int(n) < FanInHeaderBytes {
			return
		}
		// An identity whose seed is the one drawn: client·31+1 ≡ seed
		// (mod 256) for client = (seed-1)·31⁻¹, and 31⁻¹ = 223 mod 256.
		client := int(byte((seed - 1) * 223))
		fi := FanIn{Clients: client + 1, Messages: 1, MessageBytes: int(n)}
		if fi.seed(client, 0) != seed {
			t.Fatalf("identity seed %d, want %d", fi.seed(client, 0), seed)
		}
		binary.BigEndian.PutUint32(ref[0:4], uint32(client))
		binary.BigEndian.PutUint32(ref[4:8], 0)
		if got := fi.PayloadInto(nil, client, 0); string(got) != string(ref) {
			t.Fatal("FanIn.PayloadInto differs from the byte generator")
		}
		if c, m, ok := fi.Verify(ref); !ok || c != client || m != 0 {
			t.Fatalf("Verify = %d, %d, %v on a correct message", c, m, ok)
		}
		if int(n) == FanInHeaderBytes || mask == 0 {
			return
		}
		i := FanInHeaderBytes + int(at)%(int(n)-FanInHeaderBytes)
		ref[i] ^= mask
		if _, _, ok := fi.Verify(ref); ok {
			t.Fatalf("Verify accepted byte %d of %d changed by %#x", i, n, mask)
		}
	})
}

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
		p := f.PayloadInto(nil, id[0], id[1])
		if len(p) != f.MessageBytes {
			t.Fatalf("payload length %d", len(p))
		}
		client, msg, ok := f.Verify(p)
		if !ok || client != id[0] || msg != id[1] {
			t.Errorf("Verify(PayloadInto(%d,%d)) = %d,%d,%v", id[0], id[1], client, msg, ok)
		}
	}
}

func TestFanInPayloadsDistinct(t *testing.T) {
	f := DefaultFanIn()
	if string(f.PayloadInto(nil, 0, 0)) == string(f.PayloadInto(nil, 1, 0)) {
		t.Error("different clients share a payload")
	}
	if string(f.PayloadInto(nil, 0, 0)) == string(f.PayloadInto(nil, 0, 1)) {
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
	p := f.PayloadInto(nil, 2, 3)
	p[f.MessageBytes/2] ^= 1
	if _, _, ok := f.Verify(p); ok {
		t.Error("flipped bit verified")
	}
	if _, _, ok := f.Verify(f.PayloadInto(nil, 2, 3)[:100]); ok {
		t.Error("truncated payload verified")
	}
	q := f.PayloadInto(nil, 0, 0)
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
	p := f.PayloadInto(nil, 2, 3)
	if allocs := testing.AllocsPerRun(100, func() { f.Verify(p) }); allocs != 0 {
		t.Errorf("Verify: %v allocations, want 0", allocs)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"one byte long", append(f.PayloadInto(nil, 2, 3), 0)},
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
