package core

import (
	"errors"
	"testing"

	"repro/internal/arbtable"
)

// FuzzAllocatorTrace interprets fuzz input as a stream of operations
// against one allocator — two bytes per op: an opcode byte (even =
// allocate with distance chosen by value, odd = release the op/2-th
// accepted sequence) and a weight byte — and checks the allocation
// theorem and all structural invariants after every step.  Releases go
// through the allocator's PortTable with the token Reserve would have
// handed out, record handle included.  Releasing a sequence already
// released is the stale-token op: the token's record may since have
// been reused for another sequence, and the release must fail with
// ErrUnknownSeq and change nothing.  The retired array/map allocator
// runs the same stream in lock-step and every observable (table bytes,
// sequences, moves, free slots, weight, error text) must match it after
// every operation.  Run with `go test -fuzz FuzzAllocatorTrace
// ./internal/core` to explore; the seed corpus keeps it active as a
// regular test.
func FuzzAllocatorTrace(f *testing.F) {
	f.Add([]byte{0, 10, 2, 200, 1, 0, 4, 255, 3, 0})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 5, 0})
	f.Add([]byte{10, 255, 8, 128, 6, 64, 4, 32, 2, 16, 0, 8})

	f.Fuzz(func(t *testing.T, data []byte) {
		pt := NewPortTable(arbtable.New(arbtable.UnlimitedHigh))
		a := pt.Allocator()
		ref := newRefAllocator(BitReversal)
		type live struct {
			tok   Reservation
			freed bool
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
				if _, rerr := ref.allocate(uint8(i%14), d, w); (rerr == nil) != (err == nil) || err != nil && err.Error() != rerr.Error() {
					t.Fatalf("allocate(%d,%d): error %v, reference error %v", d, w, err, rerr)
				}
				switch {
				case err == nil && need > free:
					t.Fatalf("allocated %d slots with %d free", need, free)
				case err != nil && need <= free:
					t.Fatalf("rejected %d slots with %d free: %v", need, free, err)
				}
				if err == nil {
					accepted = append(accepted, live{tok: Reservation{Seq: s.ID, Weight: w, seq: s}})
				}
			} else if len(accepted) > 0 {
				idx := int(op/2) % len(accepted)
				l := &accepted[idx]
				err := pt.Release(l.tok)
				_, rerr := ref.removeWeight(l.tok.Seq, l.tok.Weight, true)
				switch {
				case !l.freed && (err != nil || rerr != nil):
					t.Fatalf("release %+v: %v, reference %v", l.tok, err, rerr)
				case l.freed && (!errors.Is(err, ErrUnknownSeq) || !errors.Is(rerr, ErrUnknownSeq)):
					t.Fatalf("stale release %+v: %v, reference %v; want ErrUnknownSeq", l.tok, err, rerr)
				}
				l.freed = true
			}
			if err := diffWithRef(a, ref); err != nil {
				t.Fatalf("after op %d (%d,%d): %v", i/2, op, arg, err)
			}
			if err := pt.CheckInvariants(); err != nil {
				t.Fatalf("after op %d (%d,%d): %v", i/2, op, arg, err)
			}
		}
	})
}

// FuzzDecide interprets fuzz input as a stream of operations on one
// PortTable, run once under each policy — three bytes per op: the low
// two bits of the first pick a reservation (0, 1), a release (2) or a
// rollback of the latest reservation still held (3), its next four bits
// the VL (15 is not a data VL); the second byte picks the distance (one
// index in seven is not a valid distance) and a weight scale, the third
// the weight (0 is invalid).  Before every reservation Decide must
// return the error Reserve then returns, nil when it succeeds, and a
// Reserve that fails must leave
// the table bytes, the occupancy word, the live list, the total weight
// and the next SeqID untouched.
func FuzzDecide(f *testing.F) {
	f.Add([]byte{0, 2, 10, 0, 2, 10, 4, 9, 200, 3, 0, 0, 2, 0, 0, 60, 0, 1})
	f.Add([]byte{0, 0, 255, 4, 0, 255, 8, 40, 255, 12, 40, 255, 60, 6, 1, 2, 1, 0})
	f.Add([]byte{0, 40, 255, 4, 40, 255, 8, 40, 255, 2, 0, 0, 8, 40, 255, 3, 0, 0, 1, 32, 200})

	distances := append(append([]int(nil), Distances...), 5)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range []Policy{BitReversal, NaturalOrder} {
			pt := NewPortTableWithPolicy(arbtable.New(arbtable.UnlimitedHigh), p)
			a := pt.Allocator()
			type state struct {
				high        [TableSize]arbtable.Entry
				occ         uint64
				live, total int
				next        SeqID
			}
			snap := func() state {
				return state{a.Table().High, a.occ, len(a.live), a.total, a.nextID}
			}
			var held []Reservation
			for i := 0; i+2 < len(data); i += 3 {
				op, x, y := data[i], data[i+1], data[i+2]
				switch op & 3 {
				case 0, 1:
					vl := op >> 2 & 15
					d := distances[int(x)%len(distances)]
					w := int(y) << (x >> 3 % 6)
					_, derr := pt.Decide(vl, d, w)
					before := snap()
					r, err := pt.Reserve(vl, d, w)
					if (derr == nil) != (err == nil) || err != nil && derr.Error() != err.Error() {
						t.Fatalf("%s op %d: Decide(%d, %d, %d) error %v, Reserve error %v", p.Name, i/3, vl, d, w, derr, err)
					}
					if err != nil {
						if after := snap(); after != before {
							t.Fatalf("%s op %d: failed Reserve(%d, %d, %d) changed the table: %+v -> %+v", p.Name, i/3, vl, d, w, before, after)
						}
						continue
					}
					held = append(held, r)
				case 2:
					if len(held) > 0 {
						k := int(x) % len(held)
						if err := pt.Release(held[k]); err != nil {
							t.Fatalf("%s op %d: release: %v", p.Name, i/3, err)
						}
						held = append(held[:k], held[k+1:]...)
					}
				case 3:
					if n := len(held); n > 0 {
						if err := pt.Rollback(held[n-1]); err != nil {
							t.Fatalf("%s op %d: rollback: %v", p.Name, i/3, err)
						}
						held = held[:n-1]
					}
				}
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
