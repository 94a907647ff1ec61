package msg

import (
	"slices"
	"testing"

	"repro/internal/mem"
)

// The reference model: fragment lists as plain slices, each operation
// written out directly.

func refNew(frags []Fragment) []Fragment {
	var out []Fragment
	for _, f := range frags {
		if f.Len > 0 {
			out = append(out, f)
		}
	}
	return out
}

func refLen(frags []Fragment) int {
	n := 0
	for _, f := range frags {
		n += f.Len
	}
	return n
}

func refSplit(frags []Fragment, n int) (head, tail []Fragment) {
	for _, f := range frags {
		switch {
		case n >= f.Len:
			head = append(head, f)
			n -= f.Len
		case n > 0:
			head = append(head, Fragment{Space: f.Space, VA: f.VA, Len: n})
			tail = append(tail, Fragment{Space: f.Space, VA: f.VA + mem.VirtAddr(n), Len: f.Len - n})
			n = 0
		default:
			tail = append(tail, f)
		}
	}
	return head, tail
}

func refPrepend(f Fragment, frags []Fragment) []Fragment {
	if f.Len == 0 {
		return slices.Clone(frags)
	}
	return append([]Fragment{f}, frags...)
}

// FuzzMessageInPlaceMatchesFresh applies a byte-coded sequence of
// strips, prepends, splits, appends and rebuilds (SetTrimPrefix,
// SetPrepend, SplitInto, SetAppend, SetFragments) to three reused
// Messages, the same sequence with a fresh zero Message as each
// destination, and the same sequence to a plain-slice model, the
// oracle. The reused Messages start dirty, holding fragment lists both longer and
// shorter than the inline array, and operands alias the destination
// wherever the in-place forms allow it. After every step all three
// agree on Fragments() and Len(), including when a cut point is out of
// range and the operation must fail without changing anything.
func FuzzMessageInPlaceMatchesFresh(f *testing.F) {
	f.Add([]byte{0, 0, 0, 7})                                     // strip in place
	f.Add([]byte{1, 1, 1, 40, 1, 2, 2, 0})                        // prepend in place, then an empty fragment
	f.Add([]byte{2, 0, 1, 0, 33, 2, 2, 0, 1, 200})                // split with tail = source
	f.Add([]byte{3, 0, 0, 0, 3, 1, 2, 1, 3, 2, 2, 2})             // append with either operand the destination
	f.Add([]byte{4, 1, 9, 3, 0, 5, 77, 6, 5, 2, 2, 4, 0, 0})      // rebuild, long and empty
	f.Add([]byte{5, 0, 0, 5, 1, 0, 0, 0, 255, 2, 1, 2, 0, 17})    // rebuild from its own and another's fragments
	f.Add([]byte{3, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 1}) // grow past the inline array, then shrink
	f.Fuzz(func(t *testing.T, ops []byte) {
		space := testSpace(1)
		frag := func(i, n int) Fragment {
			return Fragment{Space: space, VA: mem.VirtAddr(0x1000*(i+1) + 3*n), Len: n}
		}
		var reused [3]*Message
		var fresh [3]*Message
		var model [3][]Fragment
		for i := range reused {
			// Dirty storage: six fragments, then (for two of them) two.
			var dirt []Fragment
			for k := 0; k < 6; k++ {
				dirt = append(dirt, frag(100+k, 11+k))
			}
			reused[i] = New(dirt...)
			if i > 0 {
				reused[i].SetFragments(dirt[:2]...)
			}
			start := []Fragment{frag(i, 50+i), frag(i+10, 7)}[:i%3]
			reused[i].SetFragments(start...)
			fresh[i] = New(start...)
			model[i] = refNew(start)
		}
		at := 0
		next := func() int {
			if at >= len(ops) {
				return 0
			}
			at++
			return int(ops[at-1])
		}
		for step := 0; at < len(ops); step++ {
			op, i, j := next()%6, next()%3, next()%3
			desc := ""
			switch op {
			case 0: // strip
				n := next() % (refLen(model[j]) + 2)
				desc = "strip"
				err := reused[i].SetTrimPrefix(reused[j], n)
				fm := new(Message)
				ferr := fm.SetTrimPrefix(fresh[j], n)
				if n > refLen(model[j]) {
					if err == nil || ferr == nil {
						t.Fatalf("step %d: strip %d of %d bytes succeeded", step, n, refLen(model[j]))
					}
					break
				}
				if err != nil || ferr != nil {
					t.Fatalf("step %d: strip %d: %v, %v", step, n, err, ferr)
				}
				fresh[i] = fm
				_, model[i] = refSplit(model[j], n)
			case 1: // prepend
				f := frag(step, next()%40)
				desc = "prepend"
				reused[i].SetPrepend(f, reused[j])
				fresh[i] = new(Message).SetPrepend(f, fresh[j])
				model[i] = refPrepend(f, model[j])
			case 2: // split: head is neither the source nor the tail
				h := (j + 1 + next()%2) % 3
				k := 3 - j - h
				if next()%2 == 0 {
					k = j // tail is the source
				}
				n := next() % (refLen(model[j]) + 2)
				desc = "split"
				err := reused[j].SplitInto(n, reused[h], reused[k])
				fh, ft := new(Message), new(Message)
				ferr := fresh[j].SplitInto(n, fh, ft)
				if n > refLen(model[j]) {
					if err == nil || ferr == nil {
						t.Fatalf("step %d: split at %d of %d bytes succeeded", step, n, refLen(model[j]))
					}
					break
				}
				if err != nil || ferr != nil {
					t.Fatalf("step %d: split at %d: %v, %v", step, n, err, ferr)
				}
				fresh[h], fresh[k] = fh, ft
				model[h], model[k] = refSplit(model[j], n)
			case 3: // append
				b := next() % 3
				desc = "append"
				reused[i].SetAppend(reused[j], reused[b])
				fresh[i] = new(Message).SetAppend(fresh[j], fresh[b])
				model[i] = append(slices.Clone(model[j]), model[b]...)
			case 4: // rebuild from new fragments, some empty
				frs := make([]Fragment, next()%9)
				for k := range frs {
					frs[k] = frag(step*10+k, next()%3*20)
				}
				desc = "rebuild"
				reused[i].SetFragments(frs...)
				fresh[i] = New(frs...)
				model[i] = refNew(frs)
			case 5: // rebuild from a message's own fragments
				desc = "rebuild from message"
				reused[i].SetFragments(reused[j].Fragments()...)
				fresh[i] = New(fresh[j].Fragments()...)
				model[i] = refNew(model[j])
			}
			for x := range reused {
				if got, want := reused[x].Fragments(), model[x]; !slices.Equal(got, want) {
					t.Fatalf("step %d (%s): reused message %d = %v, want %v", step, desc, x, got, want)
				}
				if got, want := fresh[x].Fragments(), model[x]; !slices.Equal(got, want) {
					t.Fatalf("step %d (%s): fresh message %d = %v, want %v", step, desc, x, got, want)
				}
				if reused[x].Len() != refLen(model[x]) || fresh[x].Len() != refLen(model[x]) {
					t.Fatalf("step %d (%s): message %d lengths %d and %d, want %d", step, desc, x, reused[x].Len(), fresh[x].Len(), refLen(model[x]))
				}
			}
		}
	})
}
