package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arbtable"
)

// maskDiff drives a PortTable (the mask allocator under its
// sequence-sharing layer) and the retired array/map allocator with the
// same operations and compares everything observable after each one.
// Sequence IDs are assigned identically on both sides, so one
// reservation token addresses both.
type maskDiff struct {
	t    testing.TB
	pt   *PortTable
	a    *Allocator
	ref  *refAllocator
	held []Reservation
}

func newMaskDiff(t testing.TB, p Policy) *maskDiff {
	pt := NewPortTableWithPolicy(arbtable.New(arbtable.UnlimitedHigh), p)
	return &maskDiff{
		t:   t,
		pt:  pt,
		a:   pt.Allocator(),
		ref: newRefAllocator(p),
	}
}

// outcome fails the test unless both sides agree on success and on the
// text of a failure.
func (d *maskDiff) outcome(op string, got, want error) {
	d.t.Helper()
	if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
		d.t.Fatalf("%s: mask allocator error %v, reference error %v", op, got, want)
	}
}

func (d *maskDiff) reserve(vl uint8, distance, weight int) {
	d.t.Helper()
	op := fmt.Sprintf("Reserve(vl=%d, d=%d, w=%d)", vl, distance, weight)
	_, derr := d.pt.Decide(vl, distance, weight)
	got, gerr := d.pt.Reserve(vl, distance, weight)
	want, werr := d.ref.reserve(vl, distance, weight)
	d.outcome(op, gerr, werr)
	if (derr == nil) != (werr == nil) {
		d.t.Fatalf("%s: Decide error %v, reference error %v", op, derr, werr)
	}
	// The reference issues no record handles: the tokens agree on what
	// they name.
	if got.Seq != want.Seq || got.Weight != want.Weight {
		d.t.Fatalf("%s: reservation %+v, reference %+v", op, got, want)
	}
	if gerr == nil {
		d.held = append(d.held, got)
	}
	d.compare(op)
}

// take removes and returns the i-th held reservation.
func (d *maskDiff) take(i int) Reservation {
	r := d.held[i]
	d.held[i] = d.held[len(d.held)-1]
	d.held = d.held[:len(d.held)-1]
	return r
}

func (d *maskDiff) release(r Reservation) {
	d.t.Helper()
	op := fmt.Sprintf("Release(%+v)", r)
	d.outcome(op, d.pt.Release(r), d.ref.release(r))
	d.compare(op)
}

func (d *maskDiff) rollback(r Reservation) {
	d.t.Helper()
	op := fmt.Sprintf("Rollback(%+v)", r)
	d.outcome(op, d.pt.Rollback(r), d.ref.rollback(r))
	d.compare(op)
}

func (d *maskDiff) defragment() {
	d.t.Helper()
	if got, want := d.a.Defragment(), d.ref.defragment(); got != want {
		d.t.Fatalf("Defragment moved %d sequences, reference %d", got, want)
	}
	d.compare("Defragment")
}

func (d *maskDiff) canAllocate(distance, weight int) {
	d.t.Helper()
	if got, want := d.a.CanAllocate(distance, weight), d.ref.canAllocate(distance, weight); got != want {
		d.t.Fatalf("CanAllocate(%d, %d) = %v, reference %v", distance, weight, got, want)
	}
}

// compare fails the test unless the two allocators agree.
func (d *maskDiff) compare(op string) {
	d.t.Helper()
	if err := diffWithRef(d.a, d.ref); err != nil {
		d.t.Fatalf("after %s: %v", op, err)
	}
}

// diffWithRef checks every observable of the mask allocator against
// the reference, and the mask allocator's own audit.
func diffWithRef(a *Allocator, ref *refAllocator) error {
	if a.Table().High != ref.table.High {
		return fmt.Errorf("high tables differ\nmask: %v\nref:  %v", a.Table().High, ref.table.High)
	}
	sameSeqs := func(got, want []*Sequence) error {
		if len(got) != len(want) {
			return fmt.Errorf("%d sequences, reference %d", len(got), len(want))
		}
		for i := range got {
			// The record's owner is the mask allocator's own bookkeeping.
			g := *got[i]
			g.owner = nil
			if g != *want[i] {
				return fmt.Errorf("[%d] = %v, reference %v", i, got[i], want[i])
			}
		}
		return nil
	}
	if err := sameSeqs(a.Sequences(), ref.sequences()); err != nil {
		return fmt.Errorf("Sequences(): %w", err)
	}
	for vl := 0; vl < arbtable.NumDataVLs; vl++ {
		if err := sameSeqs(a.SequencesForVL(uint8(vl)), ref.byVL[vl]); err != nil {
			return fmt.Errorf("SequencesForVL(%d): %w", vl, err)
		}
	}
	if got, want := a.TotalMoves(), ref.moves; got != want {
		return fmt.Errorf("TotalMoves = %d, reference %d", got, want)
	}
	if got, want := a.FreeSlots(), ref.freeSlots(); got != want {
		return fmt.Errorf("FreeSlots = %d, reference %d", got, want)
	}
	if got, want := a.TotalWeight(), ref.totalWeight(); got != want {
		return fmt.Errorf("TotalWeight = %d, reference %d", got, want)
	}
	return a.checkInvariants()
}

// TestAllocatorMaskDifferential runs one random script per seed and
// policy against both allocators: reservations on all 15 data VLs that
// join sequences or allocate fresh ones at every distance, releases
// (with the defragmentation they trigger), rollbacks, explicit
// defragmentation, capacity queries and malformed requests.
func TestAllocatorMaskDifferential(t *testing.T) {
	steps := 4000
	if testing.Short() {
		steps = 500
	}
	for _, p := range []Policy{BitReversal, NaturalOrder} {
		for seed := int64(1); seed <= 6; seed++ {
			p, seed := p, seed
			t.Run(fmt.Sprintf("%s/seed%d", p.Name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				d := newMaskDiff(t, p)
				weight := func() int {
					switch k := rng.Intn(10); {
					case k < 5:
						return 1 + rng.Intn(60) // joins an existing sequence more often than not
					case k < 9:
						return 1 + rng.Intn(4*arbtable.MaxWeight)
					default:
						return 1 + rng.Intn(MaxSeqWeight) // up to the 32-slot class
					}
				}
				fresh := map[int]int{} // fresh allocations by stride
				for i := 0; i < steps; i++ {
					switch k := rng.Intn(100); {
					case k < 50:
						next := d.a.nextID
						d.reserve(uint8(rng.Intn(arbtable.NumDataVLs)), Distances[rng.Intn(len(Distances))], weight())
						if s := d.a.Lookup(next); s != nil {
							fresh[s.Stride]++
						}
					case k < 75:
						if len(d.held) > 0 {
							d.release(d.take(rng.Intn(len(d.held))))
						}
					case k < 82:
						// An aborted transaction: a few reservations undone
						// in reverse order leave the table as it was.
						before, mark := d.a.Table().High, len(d.held)
						for n := 1 + rng.Intn(3); n > 0; n-- {
							d.reserve(uint8(rng.Intn(arbtable.NumDataVLs)), Distances[rng.Intn(len(Distances))], weight())
						}
						for len(d.held) > mark {
							d.rollback(d.take(len(d.held) - 1))
						}
						if d.a.Table().High != before {
							t.Fatalf("step %d: rollback did not restore the table", i)
						}
					case k < 87:
						d.defragment()
					case k < 95:
						d.canAllocate(Distances[rng.Intn(len(Distances))], weight())
					case k < 97:
						// Malformed requests fail identically and change nothing.
						d.reserve(uint8(rng.Intn(arbtable.NumDataVLs)), 3+rng.Intn(3)*2, weight())
						d.reserve(arbtable.NumDataVLs, 8, weight())
						d.reserve(0, 8, 0)
					case k < 99:
						// A token nobody holds: unknown sequence, or more
						// weight than the sequence carries.
						d.release(Reservation{Hold: Hold{Seq: SeqID(1 + rng.Intn(int(d.a.nextID)+1))}, Weight: 1 + MaxSeqWeight})
					default:
						// Drain, so the densest classes get room again.
						for len(d.held) > 0 {
							d.release(d.take(rng.Intn(len(d.held))))
						}
					}
				}
				for _, stride := range Distances {
					if fresh[stride] == 0 {
						t.Errorf("script never allocated a fresh sequence at stride %d: %v", stride, fresh)
					}
				}
			})
		}
	}
}
