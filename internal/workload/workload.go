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

// Payload builds a deterministic test payload of n bytes; distinct
// seeds give distinct contents so cross-message corruption is
// detectable.
func Payload(n int, seed byte) []byte {
	out := make([]byte, n)
	fillPayload(out, seed)
	return out
}

// Payload bytes come from a 32-bit linear congruential generator: byte
// k is the top byte of its state after k+1 steps from
// seed·2654435761+1. payloadLanes holds four consecutive states and
// steps each by four at once — multiplier lcgA⁴ and increment
// lcgC·(1+lcgA+lcgA²+lcgA³), mod 2³² — so it yields four bytes a step.
const (
	lcgA  = 1664525
	lcgC  = 1013904223
	lcgA4 = lcgA * lcgA * lcgA * lcgA % (1 << 32)
	lcgC4 = lcgC * (1 + lcgA + lcgA*lcgA + lcgA*lcgA*lcgA) % (1 << 32)
)

type payloadLanes struct{ a, b, c, d uint32 }

func newPayloadLanes(seed byte) payloadLanes {
	a := (uint32(seed)*2654435761+1)*lcgA + lcgC
	b := a*lcgA + lcgC
	c := b*lcgA + lcgC
	return payloadLanes{a, b, c, c*lcgA + lcgC}
}

// word returns the lanes' four payload bytes as a little-endian word.
func (l payloadLanes) word() uint32 {
	return l.a>>24 | l.b>>16&0xff00 | l.c>>8&0xff0000 | l.d&0xff000000
}

// step returns the lanes four bytes on. Value receivers keep the lanes
// in registers.
func (l payloadLanes) step() payloadLanes {
	return payloadLanes{l.a*lcgA4 + lcgC4, l.b*lcgA4 + lcgC4, l.c*lcgA4 + lcgC4, l.d*lcgA4 + lcgC4}
}

// fillPayload writes Payload(len(dst), seed) into dst.
func fillPayload(dst []byte, seed byte) {
	l := newPayloadLanes(seed)
	i := 0
	for ; i+4 <= len(dst); i, l = i+4, l.step() {
		binary.LittleEndian.PutUint32(dst[i:], l.word())
	}
	for w := l.word(); i < len(dst); i, w = i+1, w>>8 {
		dst[i] = byte(w)
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

// PayloadInto builds client's msg-th message in dst's storage, which
// it grows only when dst is too short, and returns it: deterministic
// pseudo-random content (distinct per client and message) with the
// identity header in the first FanInHeaderBytes.
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

// seed is the payload seed of client's msg-th message.
func (f FanIn) seed(client, msg int) byte { return byte(client*31 + msg*7 + 1) }

// Verify checks a received payload byte for byte against what
// PayloadInto would have produced for the identity in its header, generating the
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
	// steps over its bytes (whole words), which PayloadInto overwrote.
	l := newPayloadLanes(f.seed(client, msg))
	i := 0
	for ; i < FanInHeaderBytes; i += 4 {
		l = l.step()
	}
	for ; i+4 <= len(data); i, l = i+4, l.step() {
		if binary.LittleEndian.Uint32(data[i:]) != l.word() {
			return client, msg, false
		}
	}
	for w := l.word(); i < len(data); i, w = i+1, w>>8 {
		if data[i] != byte(w) {
			return client, msg, false
		}
	}
	return client, msg, true
}
