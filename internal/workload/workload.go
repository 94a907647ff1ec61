// Package workload provides the message-size sweeps and traffic
// patterns used by the benchmark harness, matching the paper's
// evaluation parameters (§4).
package workload

import (
	"encoding/binary"
	"time"
)

// Table1Sizes are the message sizes of Table 1.
func Table1Sizes() []int { return []int{1, 1024, 2048, 4096} }

// FigureSizes are the throughput figures' x-axis: 1 KB to 256 KB,
// doubling.
func FigureSizes() []int {
	var out []int
	for s := 1024; s <= 256*1024; s *= 2 {
		out = append(out, s)
	}
	return out
}

// Doubling returns a doubling ladder from lo to hi inclusive.
func Doubling(lo, hi int) []int {
	var out []int
	for s := lo; s <= hi; s *= 2 {
		out = append(out, s)
	}
	return out
}

// Payload builds a deterministic test payload of n bytes; distinct
// seeds give distinct contents so cross-message corruption is
// detectable.
func Payload(n int, seed byte) []byte {
	out := make([]byte, n)
	fillPayload(out, seed)
	return out
}

// payloadGen yields the bytes of Payload(·, seed) in order.
type payloadGen uint32

func newPayloadGen(seed byte) payloadGen { return payloadGen(uint32(seed)*2654435761 + 1) }

func (g *payloadGen) next() byte {
	*g = *g*1664525 + 1013904223
	return byte(*g >> 24)
}

// fillPayload writes Payload(len(dst), seed) into dst.
func fillPayload(dst []byte, seed byte) {
	g := newPayloadGen(seed)
	for i := range dst {
		dst[i] = g.next()
	}
}

// PriorityMix describes the §3.1 overload experiment: a high- and a
// low-priority stream contending for receive resources.
type PriorityMix struct {
	HighPriority int
	LowPriority  int
	MessageBytes int
	Messages     int // per stream
}

// DefaultPriorityMix is the configuration used by the example and bench.
func DefaultPriorityMix() PriorityMix {
	return PriorityMix{HighPriority: 10, LowPriority: 1, MessageBytes: 4096, Messages: 8}
}

// FanInHeaderBytes is the size of the per-message identity header a
// FanIn payload starts with: big-endian client index then message
// index. The receiver uses it to attribute and verify each delivery.
const FanInHeaderBytes = 8

// FanIn describes an incast workload: Clients senders each push
// Messages messages of MessageBytes at one server through the fabric.
type FanIn struct {
	// Clients is the number of concurrent senders.
	Clients int
	// MessageBytes is the UDP payload size per message (must be at
	// least FanInHeaderBytes).
	MessageBytes int
	// Messages is the per-client message count.
	Messages int
	// Gap is the pause each client inserts between messages. Zero means
	// full rate — every client blasts back to back, the incast-collapse
	// regime where the switch's output queue overflows.
	Gap time.Duration
	// Stagger offsets client i's start by i×Stagger, de-phasing the
	// bursts so a paced run stays collision-free.
	Stagger time.Duration
}

// DefaultFanIn is the configuration used by the example and bench: 8
// clients × 8 messages of 16 KB, paced for lossless delivery. The
// server host — not the 516 Mbps channel — is the bottleneck: when two
// clients' bursts interleave at its board, cells of different VCIs
// alternate and the double-cell DMA optimization stops combining, so
// the receive processor falls behind line rate and the on-board FIFO
// overflows. A 2 ms stagger keeps the ~1.5 ms 16 KB bursts disjoint
// (client periods are identical, so relative phases never drift), and
// the 14 ms gap holds the aggregate near 70 Mbps, inside the host
// stack's receive ceiling.
func DefaultFanIn() FanIn {
	return FanIn{
		Clients:      8,
		MessageBytes: 16 * 1024,
		Messages:     8,
		Gap:          14 * time.Millisecond,
		Stagger:      2 * time.Millisecond,
	}
}

// TotalBytes is the aggregate payload the workload offers.
func (f FanIn) TotalBytes() int64 {
	return int64(f.Clients) * int64(f.Messages) * int64(f.MessageBytes)
}

// Payload builds client's msg-th message: deterministic pseudo-random
// content (distinct per client and message) with the identity header in
// the first FanInHeaderBytes.
func (f FanIn) Payload(client, msg int) []byte {
	return f.PayloadInto(nil, client, msg)
}

// PayloadInto is Payload writing the message into dst's storage, which
// it grows only when dst is too short, and returning it.
func (f FanIn) PayloadInto(dst []byte, client, msg int) []byte {
	if cap(dst) < f.MessageBytes {
		dst = make([]byte, f.MessageBytes)
	}
	dst = dst[:f.MessageBytes]
	fillPayload(dst, f.seed(client, msg))
	binary.BigEndian.PutUint32(dst[0:4], uint32(client))
	binary.BigEndian.PutUint32(dst[4:8], uint32(msg))
	return dst
}

// seed is the Payload seed of client's msg-th message.
func (f FanIn) seed(client, msg int) byte { return byte(client*31 + msg*7 + 1) }

// Verify checks a received payload byte for byte against what Payload
// would have produced for the identity in its header, generating the
// expected bytes as it compares them. ok is false on a short payload, an
// out-of-range identity, or any content mismatch.
func (f FanIn) Verify(data []byte) (client, msg int, ok bool) {
	if len(data) < FanInHeaderBytes {
		return 0, 0, false
	}
	client = int(binary.BigEndian.Uint32(data[0:4]))
	msg = int(binary.BigEndian.Uint32(data[4:8]))
	if client < 0 || client >= f.Clients || msg < 0 || msg >= f.Messages {
		return client, msg, false
	}
	if len(data) != f.MessageBytes {
		return client, msg, false
	}
	// The header is the identity just read back; the generator still
	// steps over its bytes, which Payload overwrote.
	g := newPayloadGen(f.seed(client, msg))
	for i := range data {
		if b := g.next(); i >= FanInHeaderBytes && data[i] != b {
			return client, msg, false
		}
	}
	return client, msg, true
}
