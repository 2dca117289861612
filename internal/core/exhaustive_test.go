package core

import (
	"sort"
	"testing"

	"repro/internal/arbtable"
)

// The companion technical report proves the allocation theorem
// formally; the report is unavailable, so this test verifies it by
// exhaustive state-space exploration instead: starting from the empty
// table, it follows every possible allocation (each supported
// distance) and every possible release from every reachable state,
// checking at each state that
//
//  1. an allocation succeeds if and only if enough slots are free, and
//  2. all structural invariants hold.
//
// The allocator relocates on demand: a release only frees, and an
// allocation that finds enough free slots but no aligned set
// defragments first.  A state is the set of live (stride, start) pairs.
// That abstraction is exact: placement depends only on slot occupancy,
// and the canonical layout a relocation produces depends only on the
// multiset of sequence sizes (TestDefragmentCanonicalLayout checks it),
// so two histories reaching the same pair set behave identically ever
// after.  Releases that only free reach more layouts than the eager
// discipline's canonical ones: 186 711 states at depth 8, against
// 41 924.

// seqDesc is one live sequence's placement.
type seqDesc struct{ stride, start int }

// exKey encodes a state canonically: two bytes per sequence, its
// stride and start, in ascending order.
func exKey(descs []seqDesc) string {
	sort.Slice(descs, func(i, j int) bool {
		if descs[i].stride != descs[j].stride {
			return descs[i].stride < descs[j].stride
		}
		return descs[i].start < descs[j].start
	})
	key := make([]byte, 0, 2*len(descs))
	for _, d := range descs {
		key = append(key, byte(d.stride), byte(d.start))
	}
	return string(key)
}

// materialize builds a real allocator holding exactly the given
// sequences (weight = slot count, the minimum; weights do not affect
// placement decisions).
func materialize(descs []seqDesc) *Allocator {
	a := NewAllocator(arbtable.New(arbtable.UnlimitedHigh))
	for i, d := range descs {
		// add places at the given start, bypassing the policy's scan.
		a.add(uint8(i%arbtable.NumDataVLs), d.stride, d.start, TableSize/d.stride)
	}
	return a
}

// snapshot reads the allocator's state back as descriptors.
func snapshot(a *Allocator) []seqDesc {
	var out []seqDesc
	for _, s := range a.Sequences() {
		out = append(out, seqDesc{stride: s.Stride, start: s.Start})
	}
	return out
}

// TestTheoremExhaustive explores the reachable state space breadth
// first up to a bounded operation depth: every state reachable by ANY
// sequence of at most maxDepth allocations and releases is visited and
// checked.  (Full closure is impractical — pure-allocation
// interleavings alone generate millions of distinct layouts — but
// depth-bounded exhaustiveness already covers every short history
// exactly, complementing the long random traces of the other property
// tests.)
func TestTheoremExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration in -short mode")
	}
	const maxDepth = 8

	type node struct {
		st    []seqDesc
		depth int
	}
	seen := map[string]bool{}
	start := []seqDesc{}
	seen[exKey(start)] = true
	queue := []node{{st: start}}

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		st := cur.st

		base := materialize(st)
		if err := base.checkInvariants(); err != nil {
			t.Fatalf("state %v: %v", st, err)
		}
		free := base.FreeSlots()

		// Every allocation outcome must match the theorem.
		for _, d := range Distances {
			need := TableSize / d
			a := materialize(st)
			_, err := a.Allocate(0, d, 1)
			switch {
			case err == nil && need > free:
				t.Fatalf("state %v: distance %d succeeded with %d free", st, d, free)
			case err != nil && need <= free:
				t.Fatalf("state %v: distance %d failed with %d free (need %d): %v",
					st, d, free, need, err)
			}
			if err == nil {
				if ierr := a.checkInvariants(); ierr != nil {
					t.Fatalf("state %v + alloc d=%d: %v", st, d, ierr)
				}
				if cur.depth+1 <= maxDepth {
					next := snapshot(a)
					k := exKey(next)
					if !seen[k] {
						seen[k] = true
						queue = append(queue, node{st: next, depth: cur.depth + 1})
					}
				}
			}
		}

		// Every single release (distinct placement) is a transition.
		tried := map[seqDesc]bool{}
		for _, d := range st {
			if tried[d] {
				continue
			}
			tried[d] = true
			a := materialize(st)
			var victim *Sequence
			for _, s := range a.Sequences() {
				if s.Stride == d.stride && s.Start == d.start {
					victim = s
					break
				}
			}
			if victim == nil {
				t.Fatalf("state %v: cannot find sequence %v", st, d)
			}
			if _, err := a.RemoveWeight(victim.ID, victim.Weight); err != nil {
				t.Fatalf("state %v: releasing %v: %v", st, d, err)
			}
			if err := a.checkInvariants(); err != nil {
				t.Fatalf("state %v - %v: %v", st, d, err)
			}
			if cur.depth+1 <= maxDepth {
				next := snapshot(a)
				k := exKey(next)
				if !seen[k] {
					seen[k] = true
					queue = append(queue, node{st: next, depth: cur.depth + 1})
				}
			}
		}
	}

	t.Logf("theorem verified over all states reachable in <= %d operations: %d states", maxDepth, len(seen))
	if len(seen) < 100 {
		t.Errorf("only %d states reached; exploration looks broken", len(seen))
	}
}
