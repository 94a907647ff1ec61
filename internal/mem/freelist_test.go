package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// eagerAlloc is the frame allocator as it was before stale free-list
// entries: AllocContiguous unlisted its run at once with one pass over
// the whole free list, and scanned for the run from frame 0.
type eagerAlloc struct {
	owned    []bool
	free     []Frame
	rng      *rand.Rand
	scramble bool
}

func newEagerAlloc(cfg Config) *eagerAlloc {
	e := &eagerAlloc{
		owned:    make([]bool, cfg.Pages),
		free:     make([]Frame, cfg.Pages),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		scramble: !cfg.Sequential,
	}
	for i := range e.free {
		e.free[i] = Frame(i)
	}
	if e.scramble {
		e.rng.Shuffle(len(e.free), func(i, j int) { e.free[i], e.free[j] = e.free[j], e.free[i] })
	}
	return e
}

func (e *eagerAlloc) allocFrame() (Frame, error) {
	if len(e.free) == 0 {
		return 0, fmt.Errorf("mem: out of physical memory")
	}
	f := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	e.owned[f] = true
	return f, nil
}

func (e *eagerAlloc) allocContiguous(n int) ([]Frame, error) {
	run := 0
	for i := range e.owned {
		if !e.owned[i] {
			run++
		} else {
			run = 0
		}
		if run == n {
			start := Frame(i - n + 1)
			frames := make([]Frame, n)
			for j := range frames {
				frames[j] = start + Frame(j)
			}
			kept := e.free[:0]
			for _, f := range e.free {
				if f < start || f >= start+Frame(n) {
					kept = append(kept, f)
				}
			}
			e.free = kept
			for _, f := range frames {
				e.owned[f] = true
			}
			return frames, nil
		}
	}
	return nil, fmt.Errorf("mem: no run of %d contiguous free frames", n)
}

func (e *eagerAlloc) freeFrame(f Frame) {
	e.owned[f] = false
	if e.scramble && len(e.free) > 0 {
		i := e.rng.Intn(len(e.free) + 1)
		e.free = slices.Insert(e.free, i, f)
	} else {
		e.free = append(e.free, f)
	}
}

// FuzzFreeListMatchesEager drives one AllocFrame/AllocContiguous/
// FreeFrame sequence through a Memory and through the eager allocator,
// scrambled or Sequential. After every step both must have returned the
// same frames (or both failed), count the same FreePages, and hold the
// same live free list in the same order, so every later AllocFrame and
// every scrambling draw in FreeFrame agrees too. The sequence comes from
// a seeded generator, with frees weighted by freeBias, so that each
// input is a long run that still minimizes to a few scalars.
func FuzzFreeListMatchesEager(f *testing.F) {
	f.Add(int64(1), false, uint8(64), uint8(0), uint16(1500))
	f.Add(int64(2), true, uint8(64), uint8(1), uint16(1500))
	f.Add(int64(3), false, uint8(127), uint8(3), uint16(3000))
	f.Add(int64(4), true, uint8(7), uint8(2), uint16(400))
	f.Fuzz(func(t *testing.T, seed int64, sequential bool, pages, freeBias uint8, steps uint16) {
		cfg := Config{PageSize: 4096, Pages: 1 + int(pages)%128, Seed: seed, Sequential: sequential}
		m := newMemory(cfg, nil) // the allocator never touches the bytes
		e := newEagerAlloc(cfg)
		rng := rand.New(rand.NewSource(seed))
		var held []Frame
		for step := 0; step < int(steps)%4096; step++ {
			var desc string
			switch op := rng.Intn(3 + int(freeBias)%4); {
			case op == 0 || (op >= 2 && len(held) == 0):
				desc = "AllocFrame()"
				got, gerr := m.AllocFrame()
				want, werr := e.allocFrame()
				if got != want || (gerr == nil) != (werr == nil) {
					t.Fatalf("step %d %s = %d, %v; eager %d, %v", step, desc, got, gerr, want, werr)
				}
				if gerr == nil {
					held = append(held, got)
				}
			case op == 1:
				n := 1 + rng.Intn(8)
				desc = fmt.Sprintf("AllocContiguous(%d)", n)
				got, gerr := m.AllocContiguous(n)
				want, werr := e.allocContiguous(n)
				if !slices.Equal(got, want) || (gerr == nil) != (werr == nil) {
					t.Fatalf("step %d %s = %v, %v; eager %v, %v", step, desc, got, gerr, want, werr)
				}
				held = append(held, got...)
			default:
				i := rng.Intn(len(held))
				desc = fmt.Sprintf("FreeFrame(%d)", held[i])
				m.FreeFrame(held[i])
				e.freeFrame(held[i])
				held = slices.Delete(held, i, i+1)
			}
			if got, want := m.FreePages(), len(e.free); got != want {
				t.Fatalf("step %d %s: FreePages = %d, eager %d", step, desc, got, want)
			}
			if live := liveFree(t, m); !slices.Equal(live, e.free) {
				t.Fatalf("step %d %s: live free list %v, eager %v", step, desc, live, e.free)
			}
		}
	})
}
