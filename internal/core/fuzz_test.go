package core

import (
	"testing"

	"repro/internal/arbtable"
)

// FuzzAllocatorTrace interprets fuzz input as a stream of operations
// against one allocator — two bytes per op: an opcode byte (even =
// allocate with distance chosen by value, odd = release the op/2-th
// accepted sequence) and a weight byte — and checks the allocation
// theorem and all structural invariants after every step.  The retired
// array/map allocator runs the same stream in lock-step and every
// observable (table bytes, sequences, moves, free slots, weight) must
// match it after every operation.  Run with
// `go test -fuzz FuzzAllocatorTrace ./internal/core` to explore; the
// seed corpus keeps it active as a regular test.
func FuzzAllocatorTrace(f *testing.F) {
	f.Add([]byte{0, 10, 2, 200, 1, 0, 4, 255, 3, 0})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 5, 0})
	f.Add([]byte{10, 255, 8, 128, 6, 64, 4, 32, 2, 16, 0, 8})

	f.Fuzz(func(t *testing.T, data []byte) {
		a := NewAllocator(arbtable.New(arbtable.UnlimitedHigh))
		ref := newRefAllocator(BitReversal)
		type live struct {
			id     SeqID
			weight int
			freed  bool
		}
		var accepted []live
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			if op%2 == 0 {
				d := Distances[int(op/2)%len(Distances)]
				w := 1 + int(arg)*8 // up to 2041, spanning slot counts
				_, need, err := Shape(d, w)
				if err != nil {
					t.Fatalf("shape(%d,%d): %v", d, w, err)
				}
				free := a.FreeSlots()
				s, err := a.Allocate(uint8(i%14), d, w)
				if _, rerr := ref.allocate(uint8(i%14), d, w); (rerr == nil) != (err == nil) {
					t.Fatalf("allocate(%d,%d): error %v, reference error %v", d, w, err, rerr)
				}
				switch {
				case err == nil && need > free:
					t.Fatalf("allocated %d slots with %d free", need, free)
				case err != nil && need <= free:
					t.Fatalf("rejected %d slots with %d free: %v", need, free, err)
				}
				if err == nil {
					accepted = append(accepted, live{id: s.ID, weight: w})
				}
			} else if len(accepted) > 0 {
				idx := int(op/2) % len(accepted)
				l := &accepted[idx]
				if !l.freed {
					if _, err := a.RemoveWeight(l.id, l.weight); err != nil {
						t.Fatalf("release: %v", err)
					}
					if _, err := ref.removeWeight(l.id, l.weight, true); err != nil {
						t.Fatalf("reference release: %v", err)
					}
					l.freed = true
				}
			}
			if err := diffWithRef(a, ref); err != nil {
				t.Fatalf("after op %d (%d,%d): %v", i/2, op, arg, err)
			}
		}
	})
}

// FuzzShape checks Shape never panics and always returns a placement
// consistent with its contract.
func FuzzShape(f *testing.F) {
	f.Add(8, 100)
	f.Add(64, 8160)
	f.Add(1, 0)
	f.Fuzz(func(t *testing.T, distance, weight int) {
		stride, count, err := Shape(distance, weight)
		if err != nil {
			return
		}
		if stride*count != TableSize {
			t.Fatalf("Shape(%d,%d) = (%d,%d): not a table partition", distance, weight, stride, count)
		}
		if stride > distance {
			t.Fatalf("Shape(%d,%d): stride %d looser than requested", distance, weight, stride)
		}
		if count*255 < weight {
			t.Fatalf("Shape(%d,%d): capacity %d below weight", distance, weight, count*255)
		}
	})
}
