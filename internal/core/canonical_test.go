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
func canonicalLayout(t testing.TB, live []Sequence) (*Allocator, map[SeqID]int) {
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
// test's state abstraction and the relocation decision rest on: a
// request that relocates leaves the canonical layout of the live
// multiset — what placing it, largest first and ties by ID, into an
// empty allocator gives — whatever history led there, with the fresh
// sequence at its first fit in it.  Over random histories of shared
// reservations it checks, after each relocating reservation, that every
// sequence's start and the shadow table's bytes equal the canonical
// layout's (relocatedLayout), that TotalMoves grew by the number of
// starts that changed, and that the starts and the move count equal
// those of the retired per-class loop (defragPerClass).  Releases only
// free, so the layouts after them are not compared.
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
		relocated, moved := 0, 0
		for step := 0; step < steps; step++ {
			if len(held) > 0 && rng.Intn(100) >= 55 {
				k := rng.Intn(len(held))
				if err := pt.Release(held[k]); err != nil {
					t.Fatalf("seed %d step %d: Release(%+v): %v", seed, step, held[k], err)
				}
				held[k] = held[len(held)-1]
				held = held[:len(held)-1]
				continue
			}
			vl, d, w := uint8(rng.Intn(arbtable.NumDataVLs)), Distances[rng.Intn(len(Distances))], 1+rng.Intn(3*arbtable.MaxWeight)
			dec, err := pt.Decide(vl, d, w)
			if err != nil {
				continue
			}
			survivors, before := liveValues(a), a.TotalMoves()
			r := pt.Prepare(dec)
			held = append(held, r)
			if !dec.relocate {
				if a.TotalMoves() != before {
					t.Fatalf("seed %d step %d: a placement without relocation moved sequences", seed, step)
				}
				continue
			}
			relocated++
			if err := relocatedLayout(t, a, survivors, r.Seq, before); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			starts, refMoves := defragPerClass(survivors)
			for i, s := range survivors {
				if got := a.Lookup(s.ID).Start; got != starts[i] {
					t.Fatalf("seed %d step %d: sequence %d starts at %d, per-class loop %d", seed, step, s.ID, got, starts[i])
				}
			}
			if grew := a.TotalMoves() - before; grew != refMoves {
				t.Fatalf("seed %d step %d: TotalMoves grew by %d, per-class loop moved %d", seed, step, grew, refMoves)
			}
			moved += refMoves
		}
		if relocated < steps/150 || moved == 0 {
			t.Errorf("seed %d: %d relocating reservations moving %d sequences: the history missed the relocation", seed, relocated, moved)
		}
	}
}
