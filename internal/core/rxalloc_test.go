package core

import (
	"runtime"
	"testing"

	"repro/internal/board"
)

// TestReceiveThroughputAllocsFlatInMessages: the Figures 2/3 generator
// pulls one message at a time into storage it reuses and segments each
// PDU into one cell buffer, the stack checksums through a pooled buffer,
// the board and IP reuse their reassembly records, and the driver, IP and
// UDP rewrite message views they own in place, so the bytes
// RunReceiveThroughput allocates on the Go heap do not grow with the
// message count: it measures 0 B per extra message. The bound allows one
// 128-byte msg.Message header per message; one more copy of each
// message would add its whole 64 KB.
func TestReceiveThroughputAllocsFlatInMessages(t *testing.T) {
	const size = 65536
	opt := dsOptions()
	opt.Checksum = true
	opt.Board = board.Config{RxDMA: board.DoubleCell}
	run := func(count int) uint64 {
		tb := NewTestbed(opt)
		defer tb.Shutdown()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := tb.RunReceiveThroughput(size, count); err != nil {
			t.Fatalf("RunReceiveThroughput(%d, %d): %v", size, count, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const few, many = 4, 12
	run(few) // warm-up: the process's one-time allocations
	a, b := run(few), run(many)
	perMsg := (float64(b) - float64(a)) / (many - few)
	t.Logf("%d messages: %d B, %d messages: %d B, %.0f B per extra message", few, a, many, b, perMsg)
	const bound = 128
	if perMsg > bound {
		t.Errorf("heap bytes grow by %.0f B per extra %d-byte message, want at most %d", perMsg, size, bound)
	}
}
