package arbtable

import (
	"math/rand"
	"testing"
)

// readyFor builds a Ready with the given VLs offering packets of size.
func readyFor(size int, vls ...int) *Ready {
	var r Ready
	for _, vl := range vls {
		r[vl] = size
	}
	return &r
}

func TestPickNothingReady(t *testing.T) {
	tb := New(UnlimitedHigh)
	tb.High[0] = Entry{VL: 0, Weight: 10}
	a := NewArbiter(tb)
	if _, _, ok := a.Pick(&Ready{}); ok {
		t.Error("Pick succeeded with nothing ready")
	}
}

func TestPickEmptyTables(t *testing.T) {
	a := NewArbiter(New(UnlimitedHigh))
	if _, _, ok := a.Pick(readyFor(64, 0, 1, 2)); ok {
		t.Error("Pick succeeded with empty tables")
	}
}

func TestSingleEntryServesRepeatedly(t *testing.T) {
	tb := New(UnlimitedHigh)
	tb.High[0] = Entry{VL: 3, Weight: 10}
	a := NewArbiter(tb)
	for i := 0; i < 5; i++ {
		vl, high, ok := a.Pick(readyFor(64, 3))
		if !ok || vl != 3 || !high {
			t.Fatalf("pick %d: got vl=%d high=%v ok=%v", i, vl, high, ok)
		}
	}
}

// TestWeightedShares verifies the weighted round-robin property: two
// VLs with weights 3:1 and saturated queues of 64-byte packets get
// service in a 3:1 ratio.
func TestWeightedShares(t *testing.T) {
	tb := New(UnlimitedHigh)
	tb.High[0] = Entry{VL: 0, Weight: 3}
	tb.High[1] = Entry{VL: 1, Weight: 1}
	a := NewArbiter(tb)
	counts := map[int]int{}
	for i := 0; i < 400; i++ {
		vl, _, ok := a.Pick(readyFor(WeightUnit, 0, 1))
		if !ok {
			t.Fatal("pick failed under saturation")
		}
		counts[vl]++
	}
	if counts[0] != 300 || counts[1] != 100 {
		t.Errorf("service counts = %v, want map[0:300 1:100]", counts)
	}
}

// TestWeightRoundedUpToWholePacket: an entry with weight 1 (64 bytes)
// facing 256-byte packets still sends a whole packet per visit, and the
// overdraft does not let it send twice.
func TestWeightRoundedUpToWholePacket(t *testing.T) {
	tb := New(UnlimitedHigh)
	tb.High[0] = Entry{VL: 0, Weight: 1}
	tb.High[1] = Entry{VL: 1, Weight: 1}
	a := NewArbiter(tb)
	var got []int
	for i := 0; i < 4; i++ {
		vl, _, ok := a.Pick(readyFor(256, 0, 1))
		if !ok {
			t.Fatal("pick failed")
		}
		got = append(got, vl)
	}
	want := []int{0, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("service order = %v, want %v", got, want)
		}
	}
}

// TestSkippedEntryForfeitsAllowance: when the current entry's VL dries
// up, the arbiter moves on and the unused allowance is lost.
func TestSkippedEntryForfeitsAllowance(t *testing.T) {
	tb := New(UnlimitedHigh)
	tb.High[0] = Entry{VL: 0, Weight: 100}
	tb.High[1] = Entry{VL: 1, Weight: 1}
	a := NewArbiter(tb)

	// VL0 sends one packet, then goes idle.
	if vl, _, _ := a.Pick(readyFor(WeightUnit, 0, 1)); vl != 0 {
		t.Fatalf("first pick = VL%d, want VL0", vl)
	}
	// Only VL1 ready: serve it.
	if vl, _, _ := a.Pick(readyFor(WeightUnit, 1)); vl != 1 {
		t.Fatal("idle VL0 not skipped")
	}
	// VL0 ready again: it gets a fresh visit with full weight, but the
	// 99 units it forfeited are not accumulated on top (total per visit
	// stays 100).
	for i := 0; i < 100; i++ {
		if vl, _, _ := a.Pick(readyFor(WeightUnit, 0, 1)); vl != 0 {
			t.Fatalf("pick %d = VL%d, want VL0 during its visit", i, vl)
		}
	}
	if vl, _, _ := a.Pick(readyFor(WeightUnit, 0, 1)); vl != 1 {
		t.Error("VL0 exceeded one visit's allowance after skip")
	}
}

// TestLowPriorityOnlyWhenHighIdle: with UnlimitedHigh, low-priority
// traffic is served only when no high-priority packet is ready.
func TestLowPriorityOnlyWhenHighIdle(t *testing.T) {
	tb := New(UnlimitedHigh)
	tb.High[0] = Entry{VL: 0, Weight: 1}
	tb.Low = []Entry{{VL: 10, Weight: 50}}
	a := NewArbiter(tb)

	for i := 0; i < 10; i++ {
		vl, high, ok := a.Pick(readyFor(WeightUnit, 0, 10))
		if !ok || vl != 0 || !high {
			t.Fatalf("pick %d: vl=%d high=%v, want high VL0", i, vl, high)
		}
	}
	vl, high, ok := a.Pick(readyFor(WeightUnit, 10))
	if !ok || vl != 10 || high {
		t.Fatalf("idle high: vl=%d high=%v ok=%v, want low VL10", vl, high, ok)
	}
}

// TestLimitOfHighPriority: with Limit=1 (4096 bytes), a waiting
// low-priority packet gets a turn after at most 4096 high-priority
// bytes.
func TestLimitOfHighPriority(t *testing.T) {
	tb := New(1)
	tb.High[0] = Entry{VL: 0, Weight: 255}
	tb.Low = []Entry{{VL: 10, Weight: 1}}
	a := NewArbiter(tb)

	hiBytes := 0
	lowServed := false
	for i := 0; i < 200; i++ {
		vl, high, ok := a.Pick(readyFor(256, 0, 10))
		if !ok {
			t.Fatal("pick failed")
		}
		if high {
			hiBytes += 256
			if hiBytes > LimitUnit {
				t.Fatalf("high table sent %d bytes before low turn, limit %d", hiBytes, LimitUnit)
			}
		} else {
			if vl != 10 {
				t.Fatalf("low pick = VL%d, want VL10", vl)
			}
			lowServed = true
			hiBytes = 0
		}
	}
	if !lowServed {
		t.Error("low-priority packet never served despite limit")
	}
}

// TestLimitZeroAlternates: Limit=0 means the high table has no
// allowance while low traffic waits, so service alternates.
func TestLimitZeroAlternates(t *testing.T) {
	tb := New(0)
	tb.High[0] = Entry{VL: 0, Weight: 255}
	tb.Low = []Entry{{VL: 10, Weight: 255}}
	a := NewArbiter(tb)

	// Limit 0 still admits one high packet between low opportunities,
	// so under saturation high and low strictly alternate.
	prevHigh := false
	for i := 0; i < 20; i++ {
		_, high, ok := a.Pick(readyFor(WeightUnit, 0, 10))
		if !ok {
			t.Fatal("pick failed")
		}
		if i > 0 && high == prevHigh {
			t.Fatalf("pick %d: two consecutive picks from same table (high=%v)", i, high)
		}
		prevHigh = high
	}
}

// TestHighContinuesWhenNoLowPending: an exhausted high allowance does
// not block high-priority traffic if no low packet is waiting.
func TestHighContinuesWhenNoLowPending(t *testing.T) {
	tb := New(0)
	tb.High[0] = Entry{VL: 0, Weight: 255}
	tb.Low = []Entry{{VL: 10, Weight: 255}}
	a := NewArbiter(tb)
	for i := 0; i < 10; i++ {
		vl, high, ok := a.Pick(readyFor(WeightUnit, 0))
		if !ok || !high || vl != 0 {
			t.Fatalf("pick %d: vl=%d high=%v ok=%v, want high VL0", i, vl, high, ok)
		}
	}
}

// TestDistanceBoundsServiceInterval is the latency property the whole
// paper builds on: a VL holding evenly spaced entries at distance d in
// the high table waits at most (d-1) foreign entry visits between
// consecutive service opportunities.
func TestDistanceBoundsServiceInterval(t *testing.T) {
	const dist = 8
	tb := New(UnlimitedHigh)
	// VL 0 at distance 8; every other slot occupied by filler VLs.
	for s := 0; s < TableSize; s++ {
		if s%dist == 0 {
			tb.High[s] = Entry{VL: 0, Weight: 1}
		} else {
			tb.High[s] = Entry{VL: uint8(1 + s%7), Weight: 1}
		}
	}
	a := NewArbiter(tb)
	all := readyFor(WeightUnit, 0, 1, 2, 3, 4, 5, 6, 7)
	sinceVL0 := 0
	served := 0
	for i := 0; i < 1000; i++ {
		vl, _, ok := a.Pick(all)
		if !ok {
			t.Fatal("pick failed")
		}
		if vl == 0 {
			served++
			sinceVL0 = 0
		} else {
			sinceVL0++
			if sinceVL0 >= dist {
				t.Fatalf("VL0 starved for %d slots; distance guarantee %d violated", sinceVL0, dist)
			}
		}
	}
	if served < 1000/dist {
		t.Errorf("VL0 served %d times in 1000 slots, want >= %d", served, 1000/dist)
	}
}

// TestDynamicWeightChange: weights are re-read on each visit, so a
// table update between picks takes effect without resetting the
// arbiter.
func TestDynamicWeightChange(t *testing.T) {
	tb := New(UnlimitedHigh)
	tb.High[0] = Entry{VL: 0, Weight: 1}
	tb.High[1] = Entry{VL: 1, Weight: 1}
	a := NewArbiter(tb)
	if vl, _, _ := a.Pick(readyFor(WeightUnit, 0, 1)); vl != 0 {
		t.Fatal("expected VL0 first")
	}
	// Bump VL1's weight; its next visit should grant 3 packets.
	tb.High[1].Weight = 3
	count1 := 0
	for i := 0; i < 3; i++ {
		vl, _, _ := a.Pick(readyFor(WeightUnit, 0, 1))
		if vl == 1 {
			count1++
		}
	}
	if count1 != 3 {
		t.Errorf("VL1 served %d of 3 after weight bump, want 3", count1)
	}
}

// TestLowTableShrinks: the arbiter tolerates the low table being
// replaced by a shorter one between picks.
func TestLowTableShrinks(t *testing.T) {
	tb := New(UnlimitedHigh)
	tb.Low = []Entry{{VL: 10, Weight: 1}, {VL: 11, Weight: 1}, {VL: 12, Weight: 1}}
	a := NewArbiter(tb)
	for i := 0; i < 3; i++ {
		if _, _, ok := a.Pick(readyFor(WeightUnit, 10, 11, 12)); !ok {
			t.Fatal("pick failed")
		}
	}
	tb.Low = tb.Low[:1]
	vl, _, ok := a.Pick(readyFor(WeightUnit, 10, 11, 12))
	if !ok || vl != 10 {
		t.Fatalf("after shrink: vl=%d ok=%v, want VL10", vl, ok)
	}
}

// TestConservationOfService: over a long saturated run, per-VL service
// bytes are proportional to per-VL total weight.
func TestConservationOfService(t *testing.T) {
	tb := New(UnlimitedHigh)
	// VL0: weight 4 total; VL1: weight 8 total; VL2: weight 4 total.
	tb.High[0] = Entry{VL: 0, Weight: 4}
	tb.High[16] = Entry{VL: 1, Weight: 8}
	tb.High[32] = Entry{VL: 2, Weight: 4}
	a := NewArbiter(tb)
	bytes := map[int]int{}
	for i := 0; i < 1600; i++ {
		vl, _, ok := a.Pick(readyFor(WeightUnit, 0, 1, 2))
		if !ok {
			t.Fatal("pick failed")
		}
		bytes[vl] += WeightUnit
	}
	if bytes[1] != 2*bytes[0] || bytes[0] != bytes[2] {
		t.Errorf("service bytes %v not proportional to weights 4:8:4", bytes)
	}
}

// TestProportionalFairnessQuick: for random tables under saturation,
// long-run per-VL service is proportional to per-VL total weight
// (within the one-packet rounding tolerance).
func TestProportionalFairnessQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		tb := New(UnlimitedHigh)
		weights := map[int]int{}
		slots := rng.Perm(TableSize)
		numVLs := 2 + rng.Intn(6)
		entries := 1 + rng.Intn(12)
		for i := 0; i < entries; i++ {
			vl := rng.Intn(numVLs)
			w := 1 + rng.Intn(255)
			tb.High[slots[i]] = Entry{VL: uint8(vl), Weight: uint8(w)}
			weights[vl] += w
		}
		total := 0
		for _, w := range weights {
			total += w
		}

		a := NewArbiter(tb)
		var ready Ready
		for vl := range weights {
			ready[vl] = WeightUnit
		}
		const rounds = 40000
		served := map[int]int{}
		for i := 0; i < rounds; i++ {
			vl, _, ok := a.Pick(&ready)
			if !ok {
				t.Fatal("pick failed under saturation")
			}
			served[vl]++
		}
		for vl, w := range weights {
			wantShare := float64(w) / float64(total)
			gotShare := float64(served[vl]) / rounds
			if gotShare < wantShare*0.95-0.01 || gotShare > wantShare*1.05+0.01 {
				t.Errorf("trial %d: VL %d share %.4f, want ~%.4f (weights %v)",
					trial, vl, gotShare, wantShare, weights)
			}
		}
	}
}
