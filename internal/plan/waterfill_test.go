package plan

import (
	"math"
	"testing"

	"repro/internal/arbtable"
)

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func TestWaterfillUnderload(t *testing.T) {
	// Total demand below capacity: every lane is met exactly.
	dem := []float64{0.2, 0.3, 0.1}
	alloc := waterfill(1.0, dem, []float64{1, 5, 2})
	for i := range dem {
		if math.Abs(alloc[i]-dem[i]) > 1e-12 {
			t.Errorf("lane %d: alloc %g, want demand %g met exactly", i, alloc[i], dem[i])
		}
	}
}

func TestWaterfillOverloadSplitsByWeight(t *testing.T) {
	// All lanes backlogged: capacity splits in exact weight proportion.
	alloc := waterfill(1.0, []float64{2, 2, 2}, []float64{8, 4, 4})
	want := []float64{0.5, 0.25, 0.25}
	for i := range want {
		if math.Abs(alloc[i]-want[i]) > 1e-12 {
			t.Errorf("lane %d: alloc %g, want weight share %g", i, alloc[i], want[i])
		}
	}
	if math.Abs(sum(alloc)-1.0) > 1e-12 {
		t.Errorf("overloaded fill is not work-conserving: sum %g", sum(alloc))
	}
}

func TestWaterfillMaxMinRedistribution(t *testing.T) {
	// A small demand is satisfied and its leftover share flows to the
	// backlogged lanes (the max-min property WRR converges to: served
	// lanes' unused slots are skipped, not wasted).
	alloc := waterfill(1.0, []float64{0.1, 5, 5}, []float64{1, 1, 1})
	if math.Abs(alloc[0]-0.1) > 1e-12 {
		t.Errorf("small lane got %g, want its full 0.1", alloc[0])
	}
	for i := 1; i < 3; i++ {
		if math.Abs(alloc[i]-0.45) > 1e-12 {
			t.Errorf("backlogged lane %d got %g, want redistributed 0.45", i, alloc[i])
		}
	}
}

func TestWaterfillZeroWeightGetsNothing(t *testing.T) {
	// A lane with no table entry is never scheduled no matter its demand.
	alloc := waterfill(1.0, []float64{3, 0.2}, []float64{0, 7})
	if alloc[0] != 0 {
		t.Errorf("zero-weight lane got %g, want 0", alloc[0])
	}
	if math.Abs(alloc[1]-0.2) > 1e-12 {
		t.Errorf("weighted lane got %g, want its demand 0.2", alloc[1])
	}
}

func TestWaterfillEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		cap  float64
		dem  []float64
		w    []float64
	}{
		{"empty", 1, nil, nil},
		{"zero capacity", 0, []float64{1, 2}, []float64{1, 1}},
		{"negative capacity", -0.5, []float64{1}, []float64{1}},
		{"all zero demand", 1, []float64{0, 0}, []float64{1, 1}},
		{"all zero weight", 1, []float64{1, 1}, []float64{0, 0}},
		{"negative demand", 1, []float64{-2, 0.5}, []float64{1, 1}},
		{"tiny weights", 1, []float64{2, 2}, []float64{1e-12, 1e-12}},
		{"huge demand", 1, []float64{1e18, 1e18}, []float64{3, 1}},
	}
	for _, tc := range cases {
		alloc := waterfill(tc.cap, tc.dem, tc.w)
		if len(alloc) != len(tc.dem) {
			t.Fatalf("%s: %d allocations for %d demands", tc.name, len(alloc), len(tc.dem))
		}
		total := 0.0
		for i, a := range alloc {
			if math.IsNaN(a) || math.IsInf(a, 0) || a < 0 {
				t.Errorf("%s: lane %d allocation %g not a finite non-negative number", tc.name, i, a)
			}
			if tc.dem[i] > 0 && a > tc.dem[i]+1e-9 {
				t.Errorf("%s: lane %d allocated %g beyond demand %g", tc.name, i, a, tc.dem[i])
			}
			total += a
		}
		if tc.cap > 0 && total > tc.cap+1e-9 {
			t.Errorf("%s: allocated %g beyond capacity %g", tc.name, total, tc.cap)
		}
	}
}

// TestLimitCapsHighTier: with a finite limit of high priority and a
// low-only lane backlogged, the high tier keeps exactly
// HighLimitFraction of the link at the lanes' mean wire sizes and the
// low lane gets the rest; with no high lane loaded the limit caps
// nothing and the low lane takes the whole link.
func TestLimitCapsHighTier(t *testing.T) {
	tbl := arbtable.New(0)
	hi := &lane{vl: 0, dem: 2, wireSum: 2 * 300, hiW: 1}  // backlogged, 300-byte packets
	lo := &lane{vl: 1, dem: 2, wireSum: 2 * 2100, loW: 1} // backlogged, 2100-byte packets
	want := tbl.HighLimitFraction(300, 2100)
	if want >= 1 {
		t.Fatalf("limit %d keeps %g of the link; the test needs a cap", tbl.Limit, want)
	}
	alloc := (&portModel{tbl: tbl, lanes: []*lane{hi, lo}}).allocate(-1)
	if math.Abs(alloc[0]-want) > 1e-9 || math.Abs(alloc[1]-(1-want)) > 1e-9 {
		t.Errorf("alloc = %v, want [%g %g]", alloc, want, 1-want)
	}
	alloc = (&portModel{tbl: tbl, lanes: []*lane{lo}}).allocate(-1)
	if math.Abs(alloc[0]-1) > 1e-9 {
		t.Errorf("low lane alone: alloc = %v, want the whole link", alloc)
	}
}
