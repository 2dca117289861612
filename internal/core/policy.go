package core

import (
	"math/bits"

	"repro/internal/bitrev"
)

// Policy selects how the allocator inspects candidate sets and whether
// it defragments on release.  The paper's algorithm is BitReversal;
// NaturalOrder is the naive first-fit baseline used by the ablation
// benchmarks to quantify what the bit-reversal order and the
// defragmenter buy.
type Policy struct {
	// Name labels the policy in reports.
	Name string
	// Order returns the sequence of start offsets to inspect for a
	// request of the given stride, a power of two in [1, TableSize].
	// The allocator only reads the result, so an implementation may
	// return one shared slice per stride; both built-in policies do,
	// and callers must not modify what they get.
	Order func(stride int) []int
	// Defrag enables defragmentation when a sequence is freed.
	Defrag bool
}

// bitrevOrder[i] and naturalOrder[i] are the inspection orders of the
// two built-in policies for stride 2^i, computed once: the allocator
// scans one on every allocation and the defragmenter on every release.
var bitrevOrder, naturalOrder = func() (rev, nat [numStrides][]int) {
	for i := range rev {
		rev[i] = bitrev.Order(i)
		nat[i] = make([]int, 1<<uint(i))
		for j := range nat[i] {
			nat[i][j] = j
		}
	}
	return rev, nat
}()

// BitReversal is the paper's policy: offsets in bit-reversal order and
// defragmentation on release.  With it, an allocation of n slots
// succeeds if and only if n slots are free.
var BitReversal = Policy{
	Name:   "bit-reversal",
	Order:  func(stride int) []int { return bitrevOrder[bits.TrailingZeros(uint(stride))] },
	Defrag: true,
}

// NaturalOrder is the naive baseline: offsets inspected in natural
// order (0, 1, 2, ...) and no defragmentation.  It satisfies the same
// distance guarantees but fragments the table, rejecting requests the
// bit-reversal policy would accept.
var NaturalOrder = Policy{
	Name:   "natural",
	Order:  func(stride int) []int { return naturalOrder[bits.TrailingZeros(uint(stride))] },
	Defrag: false,
}
