// Package bitrev provides the bit-reversal permutation used by the
// arbitration-table fill-in algorithm.
//
// For a request of maximum distance d = 2^i, the fill-in algorithm of
// Alfaro et al. (ICPP 2003) inspects the candidate entry sets
// E(i,0), E(i,1), ..., E(i,d-1) in the order given by the bit-reversal
// permutation of [0, d) codified with i bits.  Scanning in this order
// first fills even positions and then odd positions, so the remaining
// free entries always stay in the best shape to satisfy the most
// restrictive future request.
package bitrev

import "fmt"

// Reverse returns the bit reversal of j codified with the given number
// of bits.  For example Reverse(1, 3) = 4 (001b -> 100b).
// It panics if bits is negative, bits > 32, or j is outside [0, 2^bits).
func Reverse(j, bits int) int {
	if bits < 0 || bits > 32 {
		panic(fmt.Sprintf("bitrev: bits %d out of range [0,32]", bits))
	}
	if j < 0 || j >= 1<<uint(bits) {
		panic(fmt.Sprintf("bitrev: value %d not representable in %d bits", j, bits))
	}
	r := 0
	for k := 0; k < bits; k++ {
		r <<= 1
		r |= j & 1
		j >>= 1
	}
	return r
}

// Order returns the bit-reversal permutation of [0, 2^bits), i.e. the
// sequence Reverse(0,bits), Reverse(1,bits), ..., Reverse(2^bits-1,bits).
// This is the order in which the fill-in algorithm inspects candidate
// start offsets for a request of distance 2^bits.
func Order(bits int) []int {
	n := 1 << uint(bits)
	out := make([]int, n)
	for j := 0; j < n; j++ {
		out[j] = Reverse(j, bits)
	}
	return out
}
