package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestDefaults(t *testing.T) {
	m := New(Config{})
	if m.PageSize() != 4096 {
		t.Errorf("PageSize = %d, want 4096", m.PageSize())
	}
	if m.Pages() != 4096 {
		t.Errorf("Pages = %d, want 4096", m.Pages())
	}
	if m.FreePages() != 4096 {
		t.Errorf("FreePages = %d, want 4096", m.FreePages())
	}
}

func TestNonPowerOfTwoPageSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for page size 3000")
		}
	}()
	New(Config{PageSize: 3000})
}

func TestAllocFreeFrame(t *testing.T) {
	m := New(Config{Pages: 8})
	seen := make(map[Frame]bool)
	var frames []Frame
	for i := 0; i < 8; i++ {
		f, err := m.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if seen[f] {
			t.Fatalf("frame %d allocated twice", f)
		}
		seen[f] = true
		frames = append(frames, f)
	}
	if _, err := m.AllocFrame(); err == nil {
		t.Error("allocation beyond capacity succeeded")
	}
	for _, f := range frames {
		m.FreeFrame(f)
	}
	if m.FreePages() != 8 {
		t.Errorf("FreePages = %d after freeing all, want 8", m.FreePages())
	}
}

func TestDoubleFreePanics(t *testing.T) {
	m := New(Config{Pages: 4})
	f, _ := m.AllocFrame()
	m.FreeFrame(f)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	m.FreeFrame(f)
}

func TestScrambledAllocationIsDiscontiguous(t *testing.T) {
	// The default allocator must usually hand out non-adjacent frames;
	// this is the premise of the §2.2 fragmentation analysis.
	m := New(Config{Pages: 1024, Seed: 7})
	adjacent := 0
	var prev Frame
	for i := 0; i < 100; i++ {
		f, err := m.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && (f == prev+1) {
			adjacent++
		}
		prev = f
	}
	if adjacent > 10 {
		t.Errorf("%d/99 consecutive allocations were physically adjacent; allocator not fragmenting", adjacent)
	}
}

func TestSequentialModeIsContiguous(t *testing.T) {
	m := New(Config{Pages: 64, Sequential: true})
	a, _ := m.AllocFrame()
	b, _ := m.AllocFrame()
	if b != a-1 && b != a+1 {
		t.Errorf("sequential mode allocated %d then %d", a, b)
	}
}

func TestAllocContiguous(t *testing.T) {
	m := New(Config{Pages: 64, Seed: 3})
	frames, err := m.AllocContiguous(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(frames); i++ {
		if frames[i] != frames[i-1]+1 {
			t.Fatalf("frames %v not contiguous", frames)
		}
	}
	// Those frames must no longer be allocatable.
	got := make(map[Frame]bool)
	for {
		f, err := m.AllocFrame()
		if err != nil {
			break
		}
		got[f] = true
	}
	for _, f := range frames {
		if got[f] {
			t.Fatalf("contiguous frame %d handed out twice", f)
		}
	}
}

// AllocContiguous makes the run's frame slice in one allocation, and
// AppendContiguous into a slice with room for the run makes none and
// hands out the same run.
func TestContiguousAllocs(t *testing.T) {
	m := New(Config{Pages: 64, Seed: 3})
	scratch := make([]Frame, 0, 4)
	for _, tc := range []struct {
		name  string
		alloc func() []Frame
		want  float64
	}{
		{"AllocContiguous", func() []Frame { f, _ := m.AllocContiguous(4); return f }, 1},
		{"AppendContiguous", func() []Frame { scratch, _ = m.AppendContiguous(scratch[:0], 4); return scratch }, 0},
	} {
		var first []Frame
		allocs := testing.AllocsPerRun(50, func() {
			frames := tc.alloc()
			if first == nil {
				first = append([]Frame(nil), frames...)
			} else if !slices.Equal(frames, first) {
				t.Fatalf("%s: run %v, want %v again", tc.name, frames, first)
			}
			for _, f := range frames {
				m.FreeFrame(f)
			}
		})
		if allocs != tc.want {
			t.Errorf("%s: %.1f allocs per run, want %.0f", tc.name, allocs, tc.want)
		}
	}
}

// Over random AllocFrame/FreeFrame/AllocContiguous sequences the live
// free list is exactly the set of frames not owned, and AllocContiguous
// picks the lowest-addressed free run a brute-force search over the
// live free list finds (or fails exactly when there is none).
func TestAllocContiguousMatchesFreeList(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		m := New(Config{Pages: 96, Seed: seed})
		rng := rand.New(rand.NewSource(seed))
		var held []Frame
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(3); {
			case op == 0:
				if f, err := m.AllocFrame(); err == nil {
					held = append(held, f)
				}
			case op == 1 && len(held) > 0:
				i := rng.Intn(len(held))
				m.FreeFrame(held[i])
				held = append(held[:i], held[i+1:]...)
			default:
				n := 1 + rng.Intn(6)
				want, ok := lowestFreeRun(liveFree(t, m), n)
				frames, err := m.AllocContiguous(n)
				if ok != (err == nil) || (ok && frames[0] != want) {
					t.Fatalf("seed %d step %d: AllocContiguous(%d) = %v, %v; brute force: start %d, found %v",
						seed, step, n, frames, err, want, ok)
				}
				held = append(held, frames...)
			}
			inFree := make([]bool, m.Pages())
			for _, f := range liveFree(t, m) {
				if inFree[f] {
					t.Fatalf("seed %d step %d: frame %d on the free list twice", seed, step, f)
				}
				inFree[f] = true
			}
			for f := range inFree {
				if inFree[f] == m.owned[f] {
					t.Fatalf("seed %d step %d: frame %d free-listed %v, owned %v", seed, step, f, inFree[f], m.owned[f])
				}
			}
		}
	}
}

// liveFree returns m's free list without its stale entries: the list an
// eager allocator would hold. It fails t unless every frame appears on
// the raw list at most once and the owned entries number m.stale.
func liveFree(t testing.TB, m *Memory) []Frame {
	t.Helper()
	listed := make([]bool, m.Pages())
	var live []Frame
	stale := 0
	for _, f := range m.free {
		if listed[f] {
			t.Fatalf("frame %d on the free list twice", f)
		}
		listed[f] = true
		if m.owned[f] {
			stale++
		} else {
			live = append(live, f)
		}
	}
	if stale != m.stale {
		t.Fatalf("%d stale entries on the free list, counted %d", stale, m.stale)
	}
	for f := Frame(0); f < m.low; f++ {
		if !m.owned[f] {
			t.Fatalf("frame %d is free, below the low-water mark %d", f, m.low)
		}
	}
	return live
}

// lowestFreeRun returns the start of the lowest run of n consecutive
// frames that all appear on free.
func lowestFreeRun(free []Frame, n int) (Frame, bool) {
	in := make(map[Frame]bool, len(free))
	for _, f := range free {
		in[f] = true
	}
	lowest, found := Frame(0), false
	for _, f := range free {
		run := true
		for j := 0; j < n; j++ {
			if !in[f+Frame(j)] {
				run = false
				break
			}
		}
		if run && (!found || f < lowest) {
			lowest, found = f, true
		}
	}
	return lowest, found
}

func TestAllocContiguousExhaustion(t *testing.T) {
	m := New(Config{Pages: 8, Sequential: true})
	// Allocate every other frame to break up all runs of 2+.
	var held []Frame
	for i := 0; i < 8; i++ {
		f, _ := m.AllocFrame()
		held = append(held, f)
	}
	for i, f := range held {
		if i%2 == 0 {
			m.FreeFrame(f)
		}
	}
	if _, err := m.AllocContiguous(2); err == nil {
		t.Error("AllocContiguous(2) succeeded with only isolated free frames")
	}
	if _, err := m.AllocContiguous(1); err != nil {
		t.Errorf("AllocContiguous(1): %v", err)
	}
}

func TestWireProtectsFromReclaim(t *testing.T) {
	m := New(Config{Pages: 4})
	f, _ := m.AllocFrame()
	m.Write(m.FrameAddr(f), []byte("precious"))
	m.Wire(f)
	if err := m.Reclaim(f); err == nil {
		t.Fatal("reclaimed a wired frame")
	}
	if string(m.Read(m.FrameAddr(f), 8)) != "precious" {
		t.Fatal("wired frame contents damaged")
	}
	m.Unwire(f)
	if err := m.Reclaim(f); err != nil {
		t.Fatalf("reclaim of unwired frame failed: %v", err)
	}
	if string(m.Read(m.FrameAddr(f), 8)) == "precious" {
		t.Fatal("reclaim did not scribble the frame")
	}
}

func TestWireCountNests(t *testing.T) {
	m := New(Config{Pages: 4})
	f, _ := m.AllocFrame()
	m.Wire(f)
	m.Wire(f)
	m.Unwire(f)
	if !m.Wired(f) {
		t.Error("frame unwired after one of two unwires")
	}
	m.Unwire(f)
	if m.Wired(f) {
		t.Error("frame still wired after balanced unwires")
	}
}

func TestUnwireUnwiredPanics(t *testing.T) {
	m := New(Config{Pages: 4})
	f, _ := m.AllocFrame()
	defer func() {
		if recover() == nil {
			t.Error("unwire of unwired frame did not panic")
		}
	}()
	m.Unwire(f)
}

func TestFreeingWiredFramePanics(t *testing.T) {
	m := New(Config{Pages: 4})
	f, _ := m.AllocFrame()
	m.Wire(f)
	defer func() {
		if recover() == nil {
			t.Error("freeing wired frame did not panic")
		}
	}()
	m.FreeFrame(f)
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(Config{Pages: 4})
	data := []byte{1, 2, 3, 4, 5}
	m.Write(100, data)
	if !bytes.Equal(m.Read(100, 5), data) {
		t.Error("read != written")
	}
	var into [3]byte
	m.ReadInto(101, into[:])
	if !bytes.Equal(into[:], []byte{2, 3, 4}) {
		t.Errorf("ReadInto got %v", into)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	m := New(Config{Pages: 1, PageSize: 4096})
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds access did not panic")
		}
	}()
	m.Read(4090, 100)
}

// One seeded random sequence of accesses, frame-crossing and out of
// range ones included, leaves New's memory and a heap-backed one
// holding the same bytes after every step, returning the same results
// and panicking the same way.
func TestBackingsAgree(t *testing.T) {
	cfg := Config{PageSize: 4096, Pages: 8}
	size := cfg.PageSize * cfg.Pages
	mapped := New(cfg)
	defer mapped.Release()
	heap := newMemory(cfg, make([]byte, size))
	for _, m := range []*Memory{mapped, heap} {
		m.Wire(0) // so that Reclaim(0) takes the refusal path
	}

	rng := rand.New(rand.NewSource(1))
	addr := func() PhysAddr {
		switch rng.Intn(4) {
		case 0: // just below a frame boundary, so most accesses cross it
			return PhysAddr((1+rng.Intn(cfg.Pages))*cfg.PageSize - 1 - rng.Intn(8))
		case 1: // at or near the end of memory
			return PhysAddr(size - rng.Intn(16))
		default:
			return PhysAddr(rng.Intn(size))
		}
	}
	run := func(m *Memory, op func(*Memory) any) (res, panicked any) {
		defer func() { panicked = recover() }()
		return op(m), nil
	}

	panics, crossings := 0, 0
	for step := 0; step < 3000; step++ {
		var desc string
		var op func(*Memory) any
		switch k := rng.Intn(4); k {
		case 0, 1, 2:
			a, n := addr(), rng.Intn(64)
			if int(a)/cfg.PageSize != (int(a)+n-1)/cfg.PageSize {
				crossings++
			}
			switch k {
			case 0:
				desc = fmt.Sprintf("Read(%d, %d)", a, n)
				op = func(m *Memory) any { return m.Read(a, n) }
			case 1:
				desc = fmt.Sprintf("ReadInto(%d, [%d])", a, n)
				op = func(m *Memory) any { dst := make([]byte, n); m.ReadInto(a, dst); return dst }
			default:
				src := make([]byte, n)
				rng.Read(src)
				desc = fmt.Sprintf("Write(%d, [%d])", a, n)
				op = func(m *Memory) any { m.Write(a, src); return nil }
			}
		default:
			f := Frame(rng.Intn(cfg.Pages + 1))
			desc = fmt.Sprintf("Reclaim(%d)", f)
			op = func(m *Memory) any { return m.Reclaim(f) }
		}
		r1, p1 := run(mapped, op)
		r2, p2 := run(heap, op)
		if fmt.Sprint(r1) != fmt.Sprint(r2) || fmt.Sprint(p1) != fmt.Sprint(p2) {
			t.Fatalf("step %d %s: mapped gave %v (panic %v), heap %v (panic %v)", step, desc, r1, p1, r2, p2)
		}
		if !bytes.Equal(mapped.data, heap.data) {
			t.Fatalf("step %d %s: the backings' bytes differ", step, desc)
		}
		if p1 != nil {
			panics++
		}
	}
	if panics < 100 || crossings < 100 {
		t.Errorf("sequence too tame: %d panics, %d frame crossings", panics, crossings)
	}
}

func TestRelease(t *testing.T) {
	m := New(Config{Pages: 4})
	m.Write(0, []byte{1})
	m.Release()
	m.Release() // a second call does nothing
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "beyond physical memory size 0") {
			t.Errorf("Read after Release panicked with %q, want the bounds message", msg)
		}
	}()
	m.Read(0, 4)
}
