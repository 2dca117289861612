package bitrev

import (
	"testing"
	"testing/quick"
)

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
		if got := Reverse(c.j, c.bits); got != c.want {
			t.Errorf("Reverse(%d,%d) = %d, want %d", c.j, c.bits, got, c.want)
		}
	}
}

// TestOrderMatchesPaperExample checks the inspection order for d=8 given
// in the paper: E(3,0), E(3,4), E(3,2), E(3,6), E(3,1), E(3,5), E(3,3), E(3,7).
func TestOrderMatchesPaperExample(t *testing.T) {
	want := []int{0, 4, 2, 6, 1, 5, 3, 7}
	got := Order(3)
	if len(got) != len(want) {
		t.Fatalf("Order(3) length = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Order(3)[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestOrderIsPermutation(t *testing.T) {
	for bits := 0; bits <= 6; bits++ {
		seen := make(map[int]bool)
		for _, v := range Order(bits) {
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
		return Reverse(Reverse(v, b), b) == v
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
		order := Order(bits)
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
			parent := Reverse(j, bits)
			left := Reverse(j, bits+1)
			right := Reverse(j+1<<uint(bits), bits+1)
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
					t.Errorf("Reverse(%d,%d) did not panic", c.j, c.bits)
				}
			}()
			Reverse(c.j, c.bits)
		})
	}
}
