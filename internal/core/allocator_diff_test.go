package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/arbtable"
)

// maskDiff drives a PortTable (the mask allocator under its
// sequence-sharing layer, relocating on demand) and the retired
// array/map allocator (defragmenting on every emptying release) with
// the same operations and compares, after each one, every decision and
// every observable that does not depend on where the sequences sit.
// The layouts are compared while they agree: from a relocation — the
// reference is defragmented at the same instant, so both hold the
// canonical layout before the request is placed — or an explicit
// Defragment, until the reference's next release moves a sequence.
// Sequence IDs are assigned identically on both sides, so one
// reservation token addresses both.
type maskDiff struct {
	t      testing.TB
	pt     *PortTable
	a      *Allocator
	ref    *refAllocator
	held   []Reservation
	synced bool // the layouts agree

	relocations int
}

func newMaskDiff(t testing.TB, p Policy) *maskDiff {
	pt := NewPortTableWithPolicy(arbtable.New(arbtable.UnlimitedHigh), p)
	return &maskDiff{
		t:      t,
		pt:     pt,
		a:      pt.Allocator(),
		ref:    newRefAllocator(p),
		synced: true,
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

// reserve offers one request to both sides.  Decide must answer as the
// reference's Reserve does and write nothing.  A request Decide answers
// with a relocation must leave the canonical layout of the sequences
// live before it with the fresh sequence at its first fit there
// (canonicalLayout), and TotalMoves grown by the sequences whose start
// changed.
func (d *maskDiff) reserve(vl uint8, distance, weight int) {
	d.t.Helper()
	op := fmt.Sprintf("Reserve(vl=%d, d=%d, w=%d)", vl, distance, weight)
	shadow, moves := d.a.Table().High, d.a.TotalMoves()
	before := liveValues(d.a)
	dec, derr := d.pt.Decide(vl, distance, weight)
	if d.a.Table().High != shadow || d.a.TotalMoves() != moves {
		d.t.Fatalf("%s: Decide wrote the table", op)
	}
	if derr == nil && dec.relocate {
		d.ref.defragment()
	}
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
	if derr == nil && dec.relocate {
		d.relocations++
		d.synced = true
		if err := relocatedLayout(d.t, d.a, before, got.Seq, moves); err != nil {
			d.t.Fatalf("%s: %v", op, err)
		}
	} else if gerr == nil && d.a.TotalMoves() != moves {
		d.t.Fatalf("%s: a request that needed no relocation moved %d sequences", op, d.a.TotalMoves()-moves)
	}
	d.compare(op)
}

// decide asks both sides without reserving: Decide must answer as the
// reference would, write nothing, and relocate exactly when the request
// needs a fresh set, enough slots are free and no set is.
func (d *maskDiff) decide(vl uint8, distance, weight int) {
	d.t.Helper()
	op := fmt.Sprintf("Decide(vl=%d, d=%d, w=%d)", vl, distance, weight)
	shadow, moves := d.a.Table().High, d.a.TotalMoves()
	dec, err := d.pt.Decide(vl, distance, weight)
	d.outcome(op, err, d.ref.decide(vl, distance, weight))
	if d.a.Table().High != shadow || d.a.TotalMoves() != moves {
		d.t.Fatalf("%s: Decide wrote the table", op)
	}
	if err != nil || dec.join != 0 {
		return
	}
	_, free := d.a.policy.firstFit(d.a.occ, bits.TrailingZeros(uint(dec.stride)))
	if dec.relocate == free {
		d.t.Fatalf("%s: relocate %v, but a free set exists: %v", op, dec.relocate, free)
	}
	if !dec.relocate && d.a.occ&setMask(dec.stride, dec.start) != 0 {
		d.t.Fatalf("%s: decided start %d is taken", op, dec.start)
	}
}

// liveValues returns copies of the live sequences in ID order.
func liveValues(a *Allocator) []Sequence {
	return append([]Sequence(nil), a.Sequences()...)
}

// relocatedLayout checks the table a relocating request left: the
// sequences live before it (before, in ID order) where canonicalLayout
// puts them, the fresh sequence fresh where the canonical layout's
// first fit puts it, the table bytes equal to that layout's, and
// TotalMoves grown from moves by the number of starts that changed.
func relocatedLayout(t testing.TB, a *Allocator, before []Sequence, fresh SeqID, moves int) error {
	canon, start := canonicalLayout(t, before)
	s := a.Lookup(fresh)
	if s == nil {
		return fmt.Errorf("relocating request placed no sequence %d", fresh)
	}
	placed, err := canon.Allocate(s.VL, s.Stride, int(s.Weight))
	if err != nil {
		return fmt.Errorf("canonical layout cannot place %v: %v", s, err)
	}
	if placed.Start != s.Start {
		return fmt.Errorf("fresh sequence %d starts at %d, canonical first fit %d", fresh, s.Start, placed.Start)
	}
	changed := 0
	for _, b := range before {
		if got := int(a.Lookup(b.ID).Start); got != start[b.ID] {
			return fmt.Errorf("sequence %d starts at %d, canonical layout %d", b.ID, got, start[b.ID])
		}
		if start[b.ID] != int(b.Start) {
			changed++
		}
	}
	if a.Table().High != canon.Table().High {
		return fmt.Errorf("shadow table\n%v\ncanonical layout\n%v", a.Table().High, canon.Table().High)
	}
	if grew := a.TotalMoves() - moves; grew != changed || changed == 0 {
		return fmt.Errorf("TotalMoves grew by %d, %d starts changed", grew, changed)
	}
	return nil
}

// take removes and returns the i-th held reservation.
func (d *maskDiff) take(i int) Reservation {
	r := d.held[i]
	d.held[i] = d.held[len(d.held)-1]
	d.held = d.held[:len(d.held)-1]
	return r
}

// release frees on the mask side and defragments on the reference's;
// the layouts part when the reference moves a sequence.
func (d *maskDiff) release(r Reservation) {
	d.t.Helper()
	op := fmt.Sprintf("Release(%+v)", r)
	moves, refMoves := d.a.TotalMoves(), d.ref.moves
	d.outcome(op, d.pt.Release(r), d.ref.release(r))
	if d.a.TotalMoves() != moves {
		d.t.Fatalf("%s: a release moved %d sequences", op, d.a.TotalMoves()-moves)
	}
	if d.ref.moves != refMoves {
		d.synced = false
	}
	d.compare(op)
}

// rollback undoes a reservation on both sides without defragmenting:
// Release on the mask side, the reference's rollback.
func (d *maskDiff) rollback(r Reservation) {
	d.t.Helper()
	op := fmt.Sprintf("Rollback(%+v)", r)
	d.outcome(op, d.pt.Release(r), d.ref.rollback(r))
	d.compare(op)
}

func (d *maskDiff) defragment() {
	d.t.Helper()
	d.a.Defragment()
	d.ref.defragment()
	d.synced = true
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
	if err := diffWithRef(d.a, d.ref, d.synced); err != nil {
		d.t.Fatalf("after %s: %v", op, err)
	}
}

// diffWithRef checks every observable of the mask allocator against
// the reference — the table bytes and the starts only when layout is
// set — and the mask allocator's own audit.
func diffWithRef(a *Allocator, ref *refAllocator, layout bool) error {
	if layout && a.Table().High != ref.table.High {
		return fmt.Errorf("high tables differ\nmask: %v\nref:  %v", a.Table().High, ref.table.High)
	}
	sameSeqs := func(got []Sequence, want []*Sequence) error {
		if len(got) != len(want) {
			return fmt.Errorf("%d sequences, reference %d", len(got), len(want))
		}
		for i := range got {
			g, w := got[i], *want[i]
			if !layout {
				g.Start, w.Start = 0, 0
			}
			if g != w {
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
// join sequences or allocate fresh ones at every distance (relocating
// ones included), releases (with the defragmentation they trigger on
// the reference), rollbacks, explicit defragmentation, capacity
// queries and malformed requests.
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
						// A relocating reservation leaves its relocation
						// behind (relocatedLayout pins it).
						before, mark, moves := d.a.Table().High, len(d.held), d.a.TotalMoves()
						for n := 1 + rng.Intn(3); n > 0; n-- {
							d.reserve(uint8(rng.Intn(arbtable.NumDataVLs)), Distances[rng.Intn(len(Distances))], weight())
						}
						for len(d.held) > mark {
							d.rollback(d.take(len(d.held) - 1))
						}
						if d.a.TotalMoves() == moves && d.a.Table().High != before {
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
				if p == BitReversal && d.relocations == 0 {
					t.Errorf("script never relocated")
				}
			})
		}
	}
}
