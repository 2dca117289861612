package arbtable

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

func TestEntryIsFree(t *testing.T) {
	if !(Entry{}).IsFree() {
		t.Error("zero entry should be free")
	}
	if (Entry{VL: 3, Weight: 1}).IsFree() {
		t.Error("weighted entry should not be free")
	}
	// A zero-weight entry is unused even if it names a VL.
	if !(Entry{VL: 3, Weight: 0}).IsFree() {
		t.Error("zero-weight entry should be free")
	}
}

func TestMaxGap(t *testing.T) {
	tb := New(0)
	if g := tb.MaxGap(0); g != 0 {
		t.Errorf("gap of absent VL = %d, want 0", g)
	}
	tb.High[7] = Entry{VL: 0, Weight: 1}
	if g := tb.MaxGap(0); g != TableSize {
		t.Errorf("single-slot gap = %d, want %d", g, TableSize)
	}
	// Evenly spaced at distance 16: slots 2, 18, 34, 50.
	tb2 := New(0)
	for _, s := range []int{2, 18, 34, 50} {
		tb2.High[s] = Entry{VL: 1, Weight: 5}
	}
	if g := tb2.MaxGap(1); g != 16 {
		t.Errorf("evenly spaced gap = %d, want 16", g)
	}
	// Uneven spacing: slots 0 and 8 leave a cyclic gap of 56.
	tb3 := New(0)
	tb3.High[0] = Entry{VL: 2, Weight: 5}
	tb3.High[8] = Entry{VL: 2, Weight: 5}
	if g := tb3.MaxGap(2); g != 56 {
		t.Errorf("uneven gap = %d, want 56", g)
	}
}

// highSlotsReference and maxGapReference are the slot walks the slot
// masks and MaxGap replaced.
func highSlotsReference(t *Table, vl uint8) []int {
	var out []int
	for i, e := range t.High {
		if !e.IsFree() && e.VL == vl {
			out = append(out, i)
		}
	}
	return out
}

func maxGapReference(t *Table, vl uint8) int {
	slots := highSlotsReference(t, vl)
	if len(slots) == 0 {
		return 0
	}
	if len(slots) == 1 {
		return TableSize
	}
	maxGap := 0
	for i := range slots {
		gap := slots[(i+1)%len(slots)] - slots[i]
		if gap <= 0 {
			gap += TableSize
		}
		if gap > maxGap {
			maxGap = gap
		}
	}
	return maxGap
}

// TestSlotMaskHelpersMatchSlotWalk: on random tables — lanes holding 0,
// 1, 2, a random number of and all 64 slots, zero-weight entries that
// name a lane without occupying it — the mask-based highSlotMasks and
// MaxGap agree with the entry walks they replaced.
func TestSlotMaskHelpersMatchSlotWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 500; trial++ {
		tb := New(0)
		// VL 0 gets the trial's occupancy class; the rest of the table
		// is random filler, a quarter of it weightless.
		var own int
		switch trial % 5 {
		case 0, 1, 2:
			own = trial % 5
		case 3:
			own = TableSize
		default:
			own = 3 + rng.Intn(TableSize-3)
		}
		for n, slot := range rng.Perm(TableSize) {
			switch {
			case n < own:
				tb.High[slot] = Entry{VL: 0, Weight: uint8(1 + rng.Intn(MaxWeight))}
			case rng.Intn(4) == 0:
				tb.High[slot] = Entry{VL: uint8(rng.Intn(NumDataVLs)), Weight: 0}
			default:
				tb.High[slot] = Entry{VL: uint8(1 + rng.Intn(NumDataVLs-1)), Weight: uint8(rng.Intn(3))}
			}
		}
		masks := tb.highSlotMasks()
		for vl := uint8(0); vl < NumDataVLs; vl++ {
			want := highSlotsReference(tb, vl)
			var mask uint64
			for _, s := range want {
				mask |= 1 << uint(s)
			}
			if masks[vl] != mask {
				t.Fatalf("trial %d VL %d: mask %#x, walk finds %#x", trial, vl, masks[vl], mask)
			}
			if got, want := tb.MaxGap(vl), maxGapReference(tb, vl); got != want {
				t.Fatalf("trial %d VL %d on %v: max gap %d, walk finds %d", trial, vl, tb, got, want)
			}
		}
		if got := bits.OnesCount64(masks[0]); got != own {
			t.Fatalf("trial %d: VL 0 holds %d slots, built with %d", trial, got, own)
		}
	}
}

// TestMaxGapNoAllocs: the distance audits call MaxGap once per live
// sequence; it works on one word and must not allocate.
func TestMaxGapNoAllocs(t *testing.T) {
	tb := New(0)
	for s := 3; s < TableSize; s += 8 {
		tb.High[s] = Entry{VL: 6, Weight: 2}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if g := tb.MaxGap(6); g != 8 {
			t.Fatalf("max gap %d, want 8", g)
		}
	}); allocs != 0 {
		t.Errorf("MaxGap allocates %.1f/op, want 0", allocs)
	}
}

func TestStringRendering(t *testing.T) {
	tb := New(3)
	tb.High[0] = Entry{VL: 1, Weight: 9}
	tb.Low = []Entry{{VL: 10, Weight: 16}}
	s := tb.String()
	for _, want := range []string{"0:VL1*9", "VL10*16", "limit=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}
