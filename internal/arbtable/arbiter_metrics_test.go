package arbtable

import (
	"testing"

	"repro/internal/metrics"
)

// loadedArbiter builds an arbiter over a table with a few high- and
// low-priority entries.
func loadedArbiter() (*Arbiter, *Ready) {
	t := New(2)
	for i := 0; i < 8; i++ {
		t.High[i*8] = Entry{VL: uint8(i), Weight: 100}
	}
	t.Low = []Entry{{VL: 10, Weight: 8}, {VL: 11, Weight: 4}}
	var ready Ready
	for vl := 0; vl < 8; vl++ {
		ready[vl] = 282
	}
	ready[10], ready[11] = 282, 282
	return NewArbiter(t), &ready
}

// TestPickNoAllocs: the scheduling hot path must not allocate, with
// metrics disabled and enabled alike (the paper-scale sweep calls Pick
// millions of times per run).
func TestPickNoAllocs(t *testing.T) {
	arb, ready := loadedArbiter()
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, _, ok := arb.Pick(ready); !ok {
			t.Fatal("nothing picked")
		}
	}); allocs != 0 {
		t.Fatalf("Pick allocates %.1f/op with metrics disabled", allocs)
	}

	arb2, ready2 := loadedArbiter()
	var c metrics.ArbCounters
	arb2.SetMetrics(&c)
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, _, ok := arb2.Pick(ready2); !ok {
			t.Fatal("nothing picked")
		}
	}); allocs != 0 {
		t.Fatalf("Pick allocates %.1f/op with metrics enabled", allocs)
	}
	if c.Picks == 0 || c.EntriesVisited < c.Picks {
		t.Fatalf("counters not updated: %+v", c)
	}
}

// TestPickCounters checks the pick/scan/stall accounting against a
// hand-traced sequence.
func TestPickCounters(t *testing.T) {
	tab := New(UnlimitedHigh)
	tab.High[0] = Entry{VL: 0, Weight: 1} // 64-byte allowance
	tab.High[32] = Entry{VL: 1, Weight: 1}
	arb := NewArbiter(tab)
	var c metrics.ArbCounters
	arb.SetMetrics(&c)

	var ready Ready
	ready[0], ready[1] = 64, 64

	// First pick serves entry 0 fresh; the scan starts at slot 0, so
	// exactly one entry is visited.
	if vl, _, ok := arb.Pick(&ready); !ok || vl != 0 {
		t.Fatalf("pick 1: vl=%d ok=%v", vl, ok)
	}
	if c.Picks != 1 || c.EntriesVisited != 1 || c.Stalls != 0 {
		t.Fatalf("after pick 1: %+v", c)
	}
	lp := arb.Last()
	if !lp.High || lp.Entry != 0 || lp.Residual != 0 {
		t.Fatalf("last pick: %+v", lp)
	}

	// Allowance exhausted: the next pick scans 32 entries (slots 1..32)
	// to reach the second occupied slot.
	if vl, _, ok := arb.Pick(&ready); !ok || vl != 1 {
		t.Fatalf("pick 2: vl=%d ok=%v", vl, ok)
	}
	if c.Picks != 2 || c.EntriesVisited != 1+32 {
		t.Fatalf("after pick 2: %+v", c)
	}

	// Nothing eligible: a full pass of both tables stalls.
	var idle Ready
	if _, _, ok := arb.Pick(&idle); ok {
		t.Fatal("picked from an idle port")
	}
	if c.Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", c.Stalls)
	}
	if c.EntriesVisited != 1+32+TableSize {
		t.Fatalf("entries visited = %d, want %d", c.EntriesVisited, 1+32+TableSize)
	}
}

// TestPickScansLowOnlyWhenNeeded: a high entry within the allowance
// serves without a low-table scan; once LimitOfHighPriority 0 is used
// up by one high packet, the next pick scans the low table and serves
// it, and the pick after that is the high table's again.
func TestPickScansLowOnlyWhenNeeded(t *testing.T) {
	tab := New(0)
	tab.High[0] = Entry{VL: 0, Weight: 1}
	tab.High[32] = Entry{VL: 1, Weight: 1}
	tab.Low = []Entry{{VL: 10, Weight: 8}, {VL: 11, Weight: 4}}
	arb := NewArbiter(tab)
	var c metrics.ArbCounters
	arb.SetMetrics(&c)
	ready := readyFor(WeightUnit, 0, 1, 10)

	for i, want := range []struct {
		vl      int
		high    bool
		visited int64 // cumulative
	}{
		{0, true, 1},            // slot 0; the low table is not read
		{10, false, 1 + 32 + 1}, // allowance used up: high walk to slot 32, low entry 0 serves
		{1, true, 34 + 32},      // allowance reset: slots 1..32, no low scan
	} {
		vl, high, ok := arb.Pick(ready)
		if !ok || vl != want.vl || high != want.high || c.EntriesVisited != want.visited {
			t.Fatalf("pick %d: vl=%d high=%v ok=%v visited=%d, want vl=%d high=%v visited=%d",
				i+1, vl, high, ok, c.EntriesVisited, want.vl, want.high, want.visited)
		}
	}
}

// TestStallCountsAnEmptyPick: Stall counts exactly what Pick on an empty
// Ready counts, and changes no round-robin state.  Both arbiters share
// one table and are a few picks into it.
func TestStallCountsAnEmptyPick(t *testing.T) {
	picked, ready := loadedArbiter()
	stalled := NewArbiter(picked.table)
	for i := 0; i < 5; i++ {
		picked.Pick(ready)
		stalled.Pick(ready)
	}
	var pc, sc metrics.ArbCounters
	picked.SetMetrics(&pc)
	stalled.SetMetrics(&sc)
	before := *stalled
	var idle Ready
	if _, _, ok := picked.Pick(&idle); ok {
		t.Fatal("picked from an idle port")
	}
	stalled.Stall()
	if pc != sc {
		t.Fatalf("Stall counted %+v, an empty Pick %+v", sc, pc)
	}
	if *stalled != before {
		t.Fatalf("Stall changed the arbiter: %+v, was %+v", *stalled, before)
	}
}
