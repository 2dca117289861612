package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// The bit-reversal permutation the fill-in algorithm of Alfaro et al.
// (ICPP 2003) inspects candidate sets in: for a request of maximum
// distance d = 2^i, the sets E(i,0), E(i,1), ..., E(i,d-1) in the order
// given by the bit-reversal permutation of [0, d) codified with i bits.
// Scanning in this order first fills even positions and then odd
// positions, so the remaining free entries always stay in the best
// shape to satisfy the most restrictive future request.  The allocator
// picks the first free set of that order word-wide (Policy.firstFit);
// these are the order's plain definitions, which the reference
// allocator, the reference defragmenter and FuzzFirstFit scan.

// reverseBits returns the bit reversal of j codified with the given
// number of bits.  For example reverseBits(1, 3) = 4 (001b -> 100b).
// It panics if bits is negative, bits > 32, or j is outside [0, 2^bits).
func reverseBits(j, bits int) int {
	if bits < 0 || bits > 32 {
		panic(fmt.Sprintf("core: bits %d out of range [0,32]", bits))
	}
	if j < 0 || j >= 1<<uint(bits) {
		panic(fmt.Sprintf("core: value %d not representable in %d bits", j, bits))
	}
	r := 0
	for k := 0; k < bits; k++ {
		r <<= 1
		r |= j & 1
		j >>= 1
	}
	return r
}

// bitrevOrder returns the bit-reversal permutation of [0, 2^bits), i.e.
// the sequence reverseBits(0,bits), ..., reverseBits(2^bits-1,bits).
// This is the order in which the fill-in algorithm inspects candidate
// start offsets for a request of distance 2^bits.
func bitrevOrder(bits int) []int {
	n := 1 << uint(bits)
	out := make([]int, n)
	for j := 0; j < n; j++ {
		out[j] = reverseBits(j, bits)
	}
	return out
}

func TestReverseKnownValues(t *testing.T) {
	cases := []struct {
		j, bits, want int
	}{
		{0, 0, 0},
		{0, 1, 0},
		{1, 1, 1},
		{0, 3, 0},
		{1, 3, 4},
		{2, 3, 2},
		{3, 3, 6},
		{4, 3, 1},
		{5, 3, 5},
		{6, 3, 3},
		{7, 3, 7},
		{1, 6, 32},
		{2, 6, 16},
		{3, 6, 48},
		{63, 6, 63},
	}
	for _, c := range cases {
		if got := reverseBits(c.j, c.bits); got != c.want {
			t.Errorf("reverseBits(%d,%d) = %d, want %d", c.j, c.bits, got, c.want)
		}
	}
}

// TestOrderMatchesPaperExample checks the inspection order for d=8 given
// in the paper: E(3,0), E(3,4), E(3,2), E(3,6), E(3,1), E(3,5), E(3,3), E(3,7).
func TestOrderMatchesPaperExample(t *testing.T) {
	want := []int{0, 4, 2, 6, 1, 5, 3, 7}
	got := bitrevOrder(3)
	if len(got) != len(want) {
		t.Fatalf("bitrevOrder(3) length = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bitrevOrder(3)[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestOrderIsPermutation(t *testing.T) {
	for bits := 0; bits <= 6; bits++ {
		seen := make(map[int]bool)
		for _, v := range bitrevOrder(bits) {
			if v < 0 || v >= 1<<uint(bits) {
				t.Fatalf("bits=%d: value %d out of range", bits, v)
			}
			if seen[v] {
				t.Fatalf("bits=%d: duplicate value %d", bits, v)
			}
			seen[v] = true
		}
		if len(seen) != 1<<uint(bits) {
			t.Fatalf("bits=%d: got %d distinct values, want %d", bits, len(seen), 1<<uint(bits))
		}
	}
}

func TestReverseIsInvolutionQuick(t *testing.T) {
	f := func(j uint16, bits uint8) bool {
		b := int(bits % 7) // 0..6, the widths used by the 64-entry table
		v := int(j) % (1 << uint(b))
		return reverseBits(reverseBits(v, b), b) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEvenBeforeOdd verifies the property the paper relies on: the
// first half of the inspection order for any width >= 1 consists of the
// even offsets.  Hence even entries fill first and a distance-2 request
// (odd/even stride) can always be honored while entries remain.
func TestEvenBeforeOdd(t *testing.T) {
	for bits := 1; bits <= 6; bits++ {
		order := bitrevOrder(bits)
		half := len(order) / 2
		for i, v := range order {
			if i < half && v%2 != 0 {
				t.Errorf("bits=%d: position %d holds odd offset %d in first half", bits, i, v)
			}
			if i >= half && v%2 != 1 {
				t.Errorf("bits=%d: position %d holds even offset %d in second half", bits, i, v)
			}
		}
	}
}

// TestChildRankRelation verifies the buddy-tree relation used by the
// defragmenter: the rank of a child set E(i+1, j) is twice the rank of
// its parent E(i, j), and the rank of E(i+1, j+2^i) is twice the parent
// rank plus one.  An offset's rank in the inspection order is its bit
// reversal, because bit reversal is an involution.
func TestChildRankRelation(t *testing.T) {
	for bits := 0; bits < 6; bits++ {
		for j := 0; j < 1<<uint(bits); j++ {
			parent := reverseBits(j, bits)
			left := reverseBits(j, bits+1)
			right := reverseBits(j+1<<uint(bits), bits+1)
			if left != 2*parent {
				t.Errorf("bits=%d j=%d: left child rank %d, want %d", bits, j, left, 2*parent)
			}
			if right != 2*parent+1 {
				t.Errorf("bits=%d j=%d: right child rank %d, want %d", bits, j, right, 2*parent+1)
			}
		}
	}
}

func TestReversePanicsOnBadInput(t *testing.T) {
	cases := []struct {
		name    string
		j, bits int
	}{
		{"negative j", -1, 3},
		{"j too large", 8, 3},
		{"negative bits", 0, -1},
		{"bits too large", 0, 33},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("reverseBits(%d,%d) did not panic", c.j, c.bits)
				}
			}()
			reverseBits(c.j, c.bits)
		})
	}
}

// FuzzFirstFit holds the word-wide first fit of both policies, at every
// stride, to a scan of the policy's inspection order — bitrevOrder for
// BitReversal, 0, 1, 2, ... for NaturalOrder — that takes the first
// start whose candidate set has no taken slot in the occupancy word.
// The seeds add random words of every density to the edge cases.
func FuzzFirstFit(f *testing.F) {
	for _, occ := range []uint64{0, ^uint64(0), 1, 1 << 63, 0x5555555555555555, 0xaaaaaaaaaaaaaaaa, 0x0123456789abcdef} {
		f.Add(occ)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		// Each of the six ANDs halves the density: 1/2 down to 1/128.
		occ := rng.Uint64()
		for k := 0; k < i%7; k++ {
			occ &= rng.Uint64()
		}
		f.Add(occ)
	}
	f.Fuzz(func(t *testing.T, occ uint64) {
		for _, p := range []Policy{BitReversal, NaturalOrder} {
			for c := 0; c < numStrides; c++ {
				stride := 1 << uint(c)
				order := bitrevOrder(c)
				if p == NaturalOrder {
					for j := range order {
						order[j] = j
					}
				}
				want, wantOK := 0, false
				for _, j := range order {
					free := true
					for pos := j; pos < TableSize; pos += stride {
						free = free && occ>>uint(pos)&1 == 0
					}
					if free {
						want, wantOK = j, true
						break
					}
				}
				if got, ok := p.firstFit(occ, c); ok != wantOK || got != want {
					t.Fatalf("%s, stride %d, occupancy %#016x: fit (%d, %v), scan (%d, %v)", p.Name, stride, occ, got, ok, want, wantOK)
				}
			}
		}
	})
}
