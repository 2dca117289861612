package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arbtable"
)

// trace drives an allocator through a randomized alloc/free workload,
// checking invariants after every operation.  It is the engine behind
// the property tests for the paper's allocation theorem.
type trace struct {
	rng  *rand.Rand
	a    *Allocator
	live []SeqID
}

func newTrace(seed int64) *trace {
	return &trace{
		rng: rand.New(rand.NewSource(seed)),
		a:   NewAllocator(arbtable.New(arbtable.UnlimitedHigh)),
	}
}

// step performs one random operation and returns an error on any
// invariant violation.
func (tr *trace) step() error {
	doAlloc := len(tr.live) == 0 || tr.rng.Intn(100) < 55
	if doAlloc {
		d := Distances[tr.rng.Intn(len(Distances))]
		w := 1 + tr.rng.Intn(600)
		_, need, err := Shape(d, w)
		if err != nil {
			return fmt.Errorf("shape(%d,%d): %v", d, w, err)
		}
		free := tr.a.FreeSlots()
		s, err := tr.a.Allocate(uint8(tr.rng.Intn(arbtable.NumDataVLs)), d, w)
		switch {
		case err == nil:
			if need > free {
				return fmt.Errorf("allocated %d slots with only %d free", need, free)
			}
			tr.live = append(tr.live, s.ID)
		case need <= free:
			// The theorem: enough free slots means success.
			return fmt.Errorf("theorem violated: %d free, need %d, but allocation failed: %v",
				free, need, err)
		}
	} else {
		i := tr.rng.Intn(len(tr.live))
		id := tr.live[i]
		s := tr.a.Lookup(id)
		if s == nil {
			return fmt.Errorf("live sequence %d vanished", id)
		}
		if _, err := tr.a.RemoveWeight(id, int(s.Weight)); err != nil {
			return fmt.Errorf("free %d: %v", id, err)
		}
		tr.live[i] = tr.live[len(tr.live)-1]
		tr.live = tr.live[:len(tr.live)-1]
	}
	if err := tr.a.checkInvariants(); err != nil {
		return fmt.Errorf("invariants: %v", err)
	}
	return nil
}

// TestTheoremUnderRandomTraces is the headline property: across many
// random alloc/free traces with defragmentation on release, an
// allocation fails only when fewer slots are free than it needs, and
// all structural invariants hold after every step.
func TestTheoremUnderRandomTraces(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 42, 1234, 99991}
	steps := 400
	if testing.Short() {
		seeds = seeds[:3]
		steps = 120
	}
	for _, seed := range seeds {
		tr := newTrace(seed)
		for i := 0; i < steps; i++ {
			if err := tr.step(); err != nil {
				t.Fatalf("seed %d, step %d: %v", seed, i, err)
			}
		}
	}
}

// TestTheoremQuick drives shorter traces through testing/quick so the
// seed space is explored beyond the fixed list above.
func TestTheoremQuick(t *testing.T) {
	f := func(seed int64) bool {
		tr := newTrace(seed)
		for i := 0; i < 60; i++ {
			if err := tr.step(); err != nil {
				t.Logf("seed %d, step %d: %v", seed, i, err)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestSequencesNeverOverlapQuick: random request batches never produce
// overlapping sequences and never corrupt weights.
func TestSequencesNeverOverlapQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewAllocator(arbtable.New(arbtable.UnlimitedHigh))
		for i := 0; i < int(n%40); i++ {
			d := Distances[rng.Intn(len(Distances))]
			w := 1 + rng.Intn(2000)
			a.Allocate(uint8(rng.Intn(14)), d, w) // failures are fine
		}
		return a.checkInvariants() == nil
	}
	cfg := &quick.Config{MaxCount: 50}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestDistanceAlwaysHonoredQuick: whatever the allocation history, a
// VL's realized maximum gap never exceeds the distance its sequences
// requested.
func TestDistanceAlwaysHonoredQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewAllocator(arbtable.New(arbtable.UnlimitedHigh))
		worst := make(map[uint8]int) // loosest distance requested per VL
		for i := 0; i < 30; i++ {
			d := Distances[rng.Intn(len(Distances))]
			vl := uint8(rng.Intn(14))
			if _, err := a.Allocate(vl, d, 1+rng.Intn(400)); err != nil {
				continue
			}
			if prev, ok := worst[vl]; !ok || d > prev {
				worst[vl] = d
			}
		}
		for vl, d := range worst {
			if gap := a.Table().MaxGap(vl); gap > d {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestDefragmentIdempotent: defragmentation reaches a fixed point in
// one pass — a second immediate pass never moves anything — and the
// invariants hold afterwards.
func TestDefragmentIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewAllocator(arbtable.New(arbtable.UnlimitedHigh))
		var ids []SeqID
		for i := 0; i < 25; i++ {
			if s, err := a.Allocate(uint8(rng.Intn(14)), Distances[rng.Intn(6)], 1+rng.Intn(500)); err == nil {
				ids = append(ids, s.ID)
			}
		}
		for _, id := range ids {
			if rng.Intn(2) == 0 {
				if s := a.Lookup(id); s != nil {
					a.RemoveWeight(id, int(s.Weight))
				}
			}
		}
		a.Defragment() // settle to the canonical layout
		return a.Defragment() == 0 && a.checkInvariants() == nil
	}
	cfg := &quick.Config{MaxCount: 30}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
