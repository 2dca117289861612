package core

import (
	"errors"
	"testing"

	"repro/internal/arbtable"
)

func newAlloc() *Allocator {
	return NewAllocator(arbtable.New(arbtable.UnlimitedHigh))
}

func TestShape(t *testing.T) {
	// wantStride == 0 marks rows that must be rejected.
	cases := []struct {
		distance, weight      int
		wantStride, wantCount int
	}{
		{64, 1, 64, 1},               // latency-bound, 1 slot
		{2, 1, 2, 32},                // strictest distance
		{8, 100, 8, 8},               // latency-bound
		{64, 255, 64, 1},             // exactly one full slot
		{64, 256, 32, 2},             // weight forces 2 slots
		{64, 510, 32, 2},             // ceil(510/255)=2
		{64, 523, 16, 4},             // ceil(523/255)=3 -> next pow2 4 -> stride 16
		{64, 2041, 4, 16},            // ceil(2041/255)=9 -> next pow2 16 -> stride 4
		{16, 1200, 8, 8},             // 64/16=4 slots but ceil(1200/255)=5 -> 8 -> stride 8
		{2, MaxSeqWeight, 2, 32},     // max weight fits the 32-slot shape
		{1, 10, 0, 0},                // distance 1 rejected
		{3, 10, 0, 0},                // non power of two
		{128, 10, 0, 0},              // too large
		{64, 0, 0, 0},                // zero weight
		{64, MaxSeqWeight + 1, 0, 0}, // too heavy
	}

	for i, c := range cases {
		stride, count, err := Shape(c.distance, c.weight)
		if c.wantStride == 0 {
			if err == nil {
				t.Errorf("case %d: Shape(%d,%d) succeeded, want error", i, c.distance, c.weight)
			}
			continue
		}
		if err != nil {
			t.Errorf("case %d: Shape(%d,%d) error: %v", i, c.distance, c.weight, err)
			continue
		}
		if stride != c.wantStride || count != c.wantCount {
			t.Errorf("case %d: Shape(%d,%d) = (%d,%d), want (%d,%d)",
				i, c.distance, c.weight, stride, count, c.wantStride, c.wantCount)
		}
	}
}

func TestAllocateFirstSequencePosition(t *testing.T) {
	a := newAlloc()
	s, err := a.Allocate(0, 8, 40)
	if err != nil {
		t.Fatal(err)
	}
	if s.Start != 0 || s.Stride != 8 || s.Count != 8 {
		t.Errorf("first sequence = %v, want start 0 stride 8 count 8", s)
	}
	// Second allocation at the same distance starts at the bit-reversed
	// next offset: rev_3(1) = 4.
	s2, err := a.Allocate(1, 8, 40)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Start != 4 {
		t.Errorf("second sequence start = %d, want 4 (bit-reversal order)", s2.Start)
	}
	if err := a.checkInvariants(); err != nil {
		t.Error(err)
	}
}

// TestPaperInspectionOrder allocates eight distance-8 sequences and
// checks they land at offsets 0,4,2,6,1,5,3,7 — the order from the
// paper's worked example.
func TestPaperInspectionOrder(t *testing.T) {
	a := newAlloc()
	want := []int{0, 4, 2, 6, 1, 5, 3, 7}
	for i, w := range want {
		s, err := a.Allocate(uint8(i%14), 8, 10)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if s.Start != w {
			t.Errorf("alloc %d start = %d, want %d", i, s.Start, w)
		}
	}
	if a.FreeSlots() != 0 {
		t.Errorf("free slots = %d, want 0", a.FreeSlots())
	}
	if _, err := a.Allocate(0, 64, 1); !errors.Is(err, ErrNoSpace) {
		t.Errorf("allocation in full table: err = %v, want ErrNoSpace", err)
	}
}

func TestWeightDistribution(t *testing.T) {
	a := newAlloc()
	s, err := a.Allocate(3, 16, 10) // 4 slots, weight 10 -> 3,3,2,2
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for pos := s.Start; pos < TableSize; pos += s.Stride {
		got = append(got, int(a.Table().High[pos].Weight))
	}
	want := []int{3, 3, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot weights = %v, want %v", got, want)
		}
	}
}

func TestMaxGapHonorsDistance(t *testing.T) {
	a := newAlloc()
	for i, d := range []int{2, 4, 8, 16, 32} {
		vl := uint8(i)
		if _, err := a.Allocate(vl, d, 5); err != nil {
			t.Fatalf("alloc distance %d: %v", d, err)
		}
		if gap := a.Table().MaxGap(vl); gap > d {
			t.Errorf("VL%d: max gap %d exceeds requested distance %d", vl, gap, d)
		}
	}
}

func TestWeightBoundPlacementStillHonorsDistance(t *testing.T) {
	a := newAlloc()
	// Distance 64 but weight 523 needs 4 slots -> stride 16 <= 64.
	s, err := a.Allocate(0, 64, 523)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stride != 16 || s.Count != 4 {
		t.Fatalf("sequence = %v, want stride 16 count 4", s)
	}
	if gap := a.Table().MaxGap(0); gap > 64 {
		t.Errorf("max gap %d exceeds 64", gap)
	}
}

func TestAddRemoveWeight(t *testing.T) {
	a := newAlloc()
	s, err := a.Allocate(2, 32, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.addWeight(s, 200); err != nil {
		t.Fatal(err)
	}
	if s.Weight != 300 || s.Conns != 2 {
		t.Errorf("after add: weight=%d conns=%d, want 300, 2", s.Weight, s.Conns)
	}
	if err := a.checkInvariants(); err != nil {
		t.Error(err)
	}
	// Capacity: 2 slots * 255 = 510; spare = 210; adding 211 must fail.
	if err := a.addWeight(s, 211); err == nil {
		t.Error("overfill not rejected")
	}
	freed, err := a.RemoveWeight(s.ID, 200)
	if err != nil || freed {
		t.Fatalf("partial remove: freed=%v err=%v", freed, err)
	}
	freed, err = a.RemoveWeight(s.ID, 100)
	if err != nil || !freed {
		t.Fatalf("final remove: freed=%v err=%v", freed, err)
	}
	if a.FreeSlots() != TableSize {
		t.Errorf("free slots = %d, want %d", a.FreeSlots(), TableSize)
	}
	if _, err := a.RemoveWeight(s.ID, 1); !errors.Is(err, ErrUnknownSeq) {
		t.Errorf("remove from freed sequence: %v, want ErrUnknownSeq", err)
	}
}

func TestRemoveWeightValidation(t *testing.T) {
	a := newAlloc()
	s, _ := a.Allocate(0, 64, 50)
	if _, err := a.RemoveWeight(s.ID, 51); err == nil {
		t.Error("removing more than accumulated weight not rejected")
	}
	if _, err := a.RemoveWeight(s.ID, 0); err == nil {
		t.Error("removing zero weight not rejected")
	}
	if _, err := a.RemoveWeight(9999, 1); !errors.Is(err, ErrUnknownSeq) {
		t.Error("unknown sequence not rejected")
	}
}

func TestAllocateRejectsBadVL(t *testing.T) {
	a := newAlloc()
	if _, err := a.Allocate(arbtable.MgmtVL, 8, 10); err == nil {
		t.Error("management VL accepted")
	}
	if _, err := a.Allocate(20, 8, 10); err == nil {
		t.Error("out-of-range VL accepted")
	}
}

// TestDefragmentationMergesHoles reproduces the scenario that motivates
// defragmentation: fill the table with 2-slot sequences, free every
// other one, and verify a 32-slot request still succeeds — relocating
// first — although the free slots hold no 32-slot set.
func TestDefragmentationMergesHoles(t *testing.T) {
	a := newAlloc()
	var ids []SeqID
	for i := 0; i < 32; i++ { // fill the table with 2-slot sequences
		s, err := a.Allocate(uint8(i%14), 64, 256) // 2 slots each
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		ids = append(ids, s.ID)
	}
	// Free every other sequence: 32 slots free, fragmented as 16
	// scattered 2-sets, which releases leave as they are.
	for i := 0; i < 32; i += 2 {
		if _, err := a.RemoveWeight(ids[i], 256); err != nil {
			t.Fatalf("free %d: %v", i, err)
		}
	}
	if a.FreeSlots() != 32 {
		t.Fatalf("free slots = %d, want 32", a.FreeSlots())
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatalf("invariants after frees: %v", err)
	}
	// The theorem: a 32-slot (distance 2) request must now succeed.
	if _, err := a.Allocate(0, 2, 32); err != nil {
		t.Errorf("distance-2 allocation failed: %v", err)
	}
	if a.TotalMoves() == 0 {
		t.Error("the distance-2 allocation did not relocate")
	}
}

func TestDefragmentPreservesSequences(t *testing.T) {
	a := newAlloc()
	s1, _ := a.Allocate(1, 8, 777)
	s2, _ := a.Allocate(2, 16, 321)
	s3, _ := a.Allocate(3, 64, 55)
	before := map[SeqID][3]int{
		s1.ID: {int(s1.VL), s1.Stride, s1.Weight},
		s2.ID: {int(s2.VL), s2.Stride, s2.Weight},
		s3.ID: {int(s3.VL), s3.Stride, s3.Weight},
	}
	a.Defragment()
	for id, want := range before {
		s := a.Lookup(id)
		if s == nil {
			t.Fatalf("sequence %d lost in defragmentation", id)
		}
		if got := [3]int{int(s.VL), s.Stride, s.Weight}; got != want {
			t.Errorf("sequence %d changed: %v -> %v", id, want, got)
		}
	}
	if err := a.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDefragmentNoMovesWhenCompact(t *testing.T) {
	a := newAlloc()
	a.Allocate(0, 2, 100) // 32 slots
	a.Allocate(1, 4, 100) // 16 slots
	a.Allocate(2, 8, 100) // 8 slots
	if moves := a.Defragment(); moves != 0 {
		t.Errorf("defragment moved %d sequences in a compact table", moves)
	}
}

func TestCanAllocate(t *testing.T) {
	a := newAlloc()
	if !a.CanAllocate(2, 1) {
		t.Error("empty table refuses distance-2")
	}
	a.Allocate(0, 2, 1) // 32 slots
	a.Allocate(1, 2, 1) // remaining 32 slots
	if a.CanAllocate(64, 1) {
		t.Error("full table accepts allocation")
	}
	if a.CanAllocate(1, 1) || a.CanAllocate(64, 0) {
		t.Error("invalid request reported allocatable")
	}
}

func TestSequenceAccessors(t *testing.T) {
	s := &Sequence{ID: 7, VL: 3, Stride: 16, Start: 2, Count: 4, Weight: 100}
	if s.capacity() != 4*255 {
		t.Errorf("capacity() = %d, want %d", s.capacity(), 4*255)
	}
	if s.Spare() != 4*255-100 {
		t.Errorf("Spare() = %d, want %d", s.Spare(), 4*255-100)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

// TestTotalMovesAccounting: releases move nothing; a request that
// finds enough free slots but no aligned set relocates, and TotalMoves
// counts the sequences that moved.
func TestTotalMovesAccounting(t *testing.T) {
	a := newAlloc()
	var ids []SeqID
	for i := 0; i < 8; i++ { // eight 8-slot sequences fill the table
		s, err := a.Allocate(uint8(i), 8, 10)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	// Free two sets that are not buddies (starts 0 and 2): 16 slots
	// free, no 16-slot set among them.
	for _, k := range []int{0, 2} {
		if _, err := a.RemoveWeight(ids[k], 10); err != nil {
			t.Fatal(err)
		}
	}
	if a.TotalMoves() != 0 {
		t.Errorf("releases moved %d sequences", a.TotalMoves())
	}
	if a.CanAllocate(4, 10) != true {
		t.Fatal("16 slots free but a 16-slot request refused")
	}
	if _, err := a.Allocate(8, 4, 10); err != nil {
		t.Fatal(err)
	}
	// The canonical repack moves all six survivors: starts 4, 6, 1, 5,
	// 3, 7 become 0, 4, 2, 6, 1, 5, leaving the stride-4 set at 3.
	if a.TotalMoves() != 6 {
		t.Errorf("relocating request counted %d moves, want 6", a.TotalMoves())
	}
	if err := a.checkInvariants(); err != nil {
		t.Error(err)
	}

	// The costliest release under the paper's eager discipline emptied
	// a sequence and moved the later arrival into its hole, one
	// relocation per round; on demand, no request here needs one.
	p := newPort()
	for vl, d := range []int{4, 8, 16, 32} {
		if _, err := p.Reserve(uint8(vl), d, 100); err != nil {
			t.Fatal(err)
		}
	}
	for round := 1; round <= 3; round++ {
		first, err := p.Reserve(10, 64, 200)
		if err != nil {
			t.Fatal(err)
		}
		second, err := p.Reserve(11, 64, 200)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []Reservation{first, second} {
			if err := p.Release(r); err != nil {
				t.Fatal(err)
			}
		}
		if got := p.Allocator().TotalMoves(); got != 0 {
			t.Errorf("after %d rounds of two placements and two releases: %d moves, want 0", round, got)
		}
	}
}

// TestCheckInvariantsAuditsDerivedState corrupts, one at a time, each
// piece of state the allocator maintains incrementally instead of
// re-deriving — the occupancy word, the running weight total, the ID
// order of the live list — and expects the audit to notice.
func TestCheckInvariantsAuditsDerivedState(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(a *Allocator)
	}{
		// The first sequence starts at slot 0; 13 slots are taken in
		// all and slot 63 is not one of them.
		{"occ marks a free slot", func(a *Allocator) { a.occ |= 1 << 63 }},
		{"occ misses an owned slot", func(a *Allocator) { a.occ &^= 1 }},
		{"total too high", func(a *Allocator) { a.total++ }},
		{"total too low", func(a *Allocator) { a.total -= 40 }},
		{"live list out of ID order", func(a *Allocator) { a.live[0], a.live[1] = a.live[1], a.live[0] }},
	} {
		a := newAlloc()
		for vl, d := range []int{8, 16, 64} {
			if _, err := a.Allocate(uint8(vl), d, 40); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.checkInvariants(); err != nil {
			t.Fatalf("%s: before corruption: %v", tc.name, err)
		}
		tc.corrupt(a)
		if err := a.checkInvariants(); err == nil {
			t.Errorf("%s: checkInvariants reported nothing", tc.name)
		}
	}
}
