package core

import "math/bits"

// Policy selects which free candidate set the allocator takes for a
// stride and whether it defragments on release.  The paper's algorithm
// is BitReversal; NaturalOrder is the naive first-fit baseline used by
// the ablation benchmarks to quantify what the bit-reversal order and
// the defragmenter buy.
type Policy struct {
	// Name labels the policy in reports.
	Name string
	// Defrag enables defragmentation when a sequence is freed.
	Defrag bool
	// natural takes the lowest free start offset instead of the first
	// one in bit-reversal order.
	natural bool
}

// BitReversal is the paper's policy: offsets in bit-reversal order and
// defragmentation on release.  With it, an allocation of n slots
// succeeds if and only if n slots are free.
var BitReversal = Policy{Name: "bit-reversal", Defrag: true}

// NaturalOrder is the naive baseline: offsets inspected in natural
// order (0, 1, 2, ...) and no defragmentation.  It satisfies the same
// distance guarantees but fragments the table, rejecting requests the
// bit-reversal policy would accept.
var NaturalOrder = Policy{Name: "natural", natural: true}

// firstFit returns the start offset of the candidate set of stride 2^c
// that the policy takes in occupancy occ: the first entirely free one in
// its inspection order.
func (p *Policy) firstFit(occ uint64, c int) (start int, ok bool) {
	free := freeStarts(occ, c)
	if free == 0 {
		return 0, false
	}
	if p.natural {
		return bits.TrailingZeros64(free), true
	}
	return bitrevFirst(free), true
}

// freeStarts returns the start offsets whose candidate set of stride
// 2^c is entirely free in occupancy occ, bit j for offset j.  Folding
// the word over the stride ORs every slot's bit onto its offset, so bit
// j of the fold is set exactly when some slot j + k·2^c is taken.
func freeStarts(occ uint64, c int) uint64 {
	stride := 1 << uint(c)
	for sh := TableSize / 2; sh >= stride; sh >>= 1 {
		occ |= occ >> uint(sh)
	}
	return ^occ & (^uint64(0) >> uint(TableSize-stride))
}

// offsetBitClear[k] holds the offsets in [0, TableSize) whose bit k is
// clear.
var offsetBitClear = [...]uint64{
	0x5555555555555555, 0x3333333333333333, 0x0f0f0f0f0f0f0f0f,
	0x00ff00ff00ff00ff, 0x0000ffff0000ffff, 0x00000000ffffffff,
}

// bitrevFirst returns the offset among the set bits of free (nonzero)
// that comes first in bit-reversal order.  An offset's rank in that
// order is its reversal, so the first one is the least in offset bit 0,
// then bit 1, and so on: each step keeps the offsets with the bit
// clear, if any.  A stride-2^c request's offsets have every bit from c
// up clear, so the steps past c keep them all.
func bitrevFirst(free uint64) int {
	for _, m := range &offsetBitClear {
		if free&m != 0 {
			free &= m
		} else {
			free &^= m
		}
	}
	return bits.TrailingZeros64(free)
}
