package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/arbtable"
)

// defragPerClass is the defragmenter's placement as it stood before one
// pass bucketed the live list by size class: six passes over the
// ID-ordered list, one per class from 32 slots down to 1, each resuming
// its bit-reversal scan where the previous sequence of the class
// stopped.  It is kept as the reference TestDefragmentCanonicalLayout
// holds Defragment to, and builds its own masks and orders.  It returns
// the start each sequence of live (in ID order) gets and how many of
// them move.
func defragPerClass(live []Sequence) (starts []int, moves int) {
	var shadow uint64
	starts = make([]int, len(live))
	for class := 1; class <= 6; class++ {
		stride := 1 << uint(class)
		var m uint64
		for pos := 0; pos < TableSize; pos += stride {
			m |= 1 << uint(pos)
		}
		order := bitrevOrder(class)
		rank := 0
		for i, s := range live {
			if s.Stride != stride {
				continue
			}
			for rank < len(order) && shadow&(m<<uint(order[rank])) != 0 {
				rank++
			}
			if rank == len(order) {
				panic("defragPerClass: a live sequence does not fit")
			}
			j := order[rank]
			shadow |= m << uint(j)
			starts[i] = j
			if j != s.Start {
				moves++
			}
		}
	}
	return starts, moves
}

// canonicalLayout places copies of the given sequences into an empty
// allocator, largest first and ties by ID, and returns it with the
// start each sequence got there, by ID.
func canonicalLayout(t *testing.T, live []Sequence) (*Allocator, map[SeqID]int) {
	t.Helper()
	order := append([]Sequence(nil), live...)
	sort.Slice(order, func(i, j int) bool {
		if order[i].Count != order[j].Count {
			return order[i].Count > order[j].Count
		}
		return order[i].ID < order[j].ID
	})
	c := NewAllocator(arbtable.New(arbtable.UnlimitedHigh))
	start := make(map[SeqID]int, len(order))
	for _, s := range order {
		// The stride is a valid distance, and the weight fits it.
		placed, err := c.Allocate(s.VL, s.Stride, s.Weight)
		if err != nil {
			t.Fatalf("canonical layout: placing %v: %v", &s, err)
		}
		start[s.ID] = placed.Start
	}
	return c, start
}

// TestDefragmentCanonicalLayout checks the property the exhaustive
// test's state abstraction rests on: after every release that empties a
// sequence, the defragmented table is the canonical layout of the live
// multiset — what placing it, largest first and ties by ID, into an
// empty allocator gives — whatever history led there.  Over random
// histories of shared reservations it checks, after each emptying
// release, that every sequence's start and the shadow table's bytes
// equal the canonical layout's, that TotalMoves grew by the number of
// starts that changed, and that the starts and the move count equal
// those of the retired per-class loop (defragPerClass).
func TestDefragmentCanonicalLayout(t *testing.T) {
	steps := 3000
	if testing.Short() {
		steps = 600
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pt := NewPortTable(arbtable.New(arbtable.UnlimitedHigh))
		a := pt.Allocator()
		var held []Reservation
		emptied, moved := 0, 0
		for step := 0; step < steps; step++ {
			if len(held) == 0 || rng.Intn(100) < 55 {
				vl, d := uint8(rng.Intn(4)), Distances[rng.Intn(len(Distances))]
				if r, err := pt.Reserve(vl, d, 1+rng.Intn(3*arbtable.MaxWeight)); err == nil {
					held = append(held, r)
				}
				continue
			}
			k := rng.Intn(len(held))
			r := held[k]
			held[k] = held[len(held)-1]
			held = held[:len(held)-1]
			// The sequences that survive the release should it empty
			// its sequence, by value and in ID order, as they stand
			// before it.
			var survivors []Sequence
			for _, s := range a.Sequences() {
				if s.ID != r.Seq {
					survivors = append(survivors, *s)
				}
			}
			before := a.TotalMoves()
			if err := pt.Release(r); err != nil {
				t.Fatalf("seed %d step %d: Release(%+v): %v", seed, step, r, err)
			}
			if a.Lookup(r.Seq) != nil {
				continue // still shared: nothing freed, nothing defragmented
			}
			emptied++
			got := a.Sequences()
			if len(got) != len(survivors) {
				t.Fatalf("seed %d step %d: %d sequences live, want %d", seed, step, len(got), len(survivors))
			}
			starts, refMoves := defragPerClass(survivors)
			canon, canonStart := canonicalLayout(t, survivors)
			changed := 0
			for i, s := range got {
				switch {
				case s.ID != survivors[i].ID:
					t.Fatalf("seed %d step %d: sequence %d live, want %d", seed, step, s.ID, survivors[i].ID)
				case s.Start != canonStart[s.ID]:
					t.Fatalf("seed %d step %d: sequence %d starts at %d, canonical layout %d", seed, step, s.ID, s.Start, canonStart[s.ID])
				case s.Start != starts[i]:
					t.Fatalf("seed %d step %d: sequence %d starts at %d, per-class loop %d", seed, step, s.ID, s.Start, starts[i])
				}
				if s.Start != survivors[i].Start {
					changed++
				}
			}
			if a.Table().High != canon.Table().High {
				t.Fatalf("seed %d step %d: shadow table\n%v\ncanonical layout\n%v", seed, step, a.Table().High, canon.Table().High)
			}
			if grew := a.TotalMoves() - before; grew != changed || grew != refMoves {
				t.Fatalf("seed %d step %d: TotalMoves grew by %d; %d starts changed, per-class loop moved %d", seed, step, grew, changed, refMoves)
			}
			moved += changed
		}
		if emptied < steps/20 || moved == 0 {
			t.Errorf("seed %d: %d emptying releases moving %d sequences: the history missed the defragmenter", seed, emptied, moved)
		}
	}
}
