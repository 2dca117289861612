package arbtable

import (
	"math"
	"testing"
)

// TestWeightShareAccessors locks down the per-VL weight extraction the
// analytical capacity planner (internal/plan) shares with the arbiter:
// high- and low-table weights must sum over every slot naming the lane
// (collapsed mappings place several reservations on one VL), and zero
// weights are unused slots.
func TestWeightShareAccessors(t *testing.T) {
	cases := []struct {
		name string
		high []Entry // placed at slots 0..n-1
		low  []Entry
		vl   uint8

		wantHighW int
		wantLowW  int
	}{
		{
			name: "empty tables",
			vl:   0,
		},
		{
			name:      "single high entry",
			high:      []Entry{{VL: 3, Weight: 10}},
			vl:        3,
			wantHighW: 10,
		},
		{
			name: "collapsed VL sums multiple high slots",
			high: []Entry{{VL: 2, Weight: 5}, {VL: 1, Weight: 3}, {VL: 2, Weight: 7}},
			vl:   2,

			wantHighW: 12,
		},
		{
			name:      "zero-weight slots are unused",
			high:      []Entry{{VL: 4, Weight: 0}, {VL: 4, Weight: 6}, {VL: 5, Weight: 0}},
			vl:        4,
			wantHighW: 6,
		},
		{
			name:     "low table only",
			low:      []Entry{{VL: 10, Weight: 8}, {VL: 11, Weight: 4}, {VL: 12, Weight: 1}},
			vl:       11,
			wantLowW: 4,
		},
		{
			name:     "plane copies sum in the low table",
			low:      []Entry{{VL: 6, Weight: 8}, {VL: 13, Weight: 8}, {VL: 6, Weight: 8}},
			vl:       6,
			wantLowW: 16,
		},
		{
			name:     "zero-weight low entries ignored",
			low:      []Entry{{VL: 7, Weight: 0}, {VL: 8, Weight: 2}},
			vl:       7,
			wantLowW: 0,
		},
		{
			name:      "absent VL",
			high:      []Entry{{VL: 1, Weight: 9}},
			low:       []Entry{{VL: 10, Weight: 3}},
			vl:        5,
			wantHighW: 0, wantLowW: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := New(UnlimitedHigh)
			copy(tb.High[:], tc.high)
			tb.Low = tc.low
			if got := tb.HighWeightForVL(tc.vl); got != tc.wantHighW {
				t.Errorf("HighWeightForVL(%d) = %d, want %d", tc.vl, got, tc.wantHighW)
			}
			if got := tb.LowWeightForVL(tc.vl); got != tc.wantLowW {
				t.Errorf("LowWeightForVL(%d) = %d, want %d", tc.vl, got, tc.wantLowW)
			}
		})
	}
}

// TestHighLimitFraction pins the limit-of-high semantics the model
// mirrors from arbiter.limitExceeded: the high table sends
// max(Limit*LimitUnit, one packet) bytes per preemption cycle, then
// yields exactly one low packet.
func TestHighLimitFraction(t *testing.T) {
	const wire = 538 // 512-byte payload + headers
	cases := []struct {
		name           string
		limit          uint8
		hiWire, loWire int
		want           float64
	}{
		{"unlimited never preempts", UnlimitedHigh, wire, wire, 1.0},
		{"limit 0 alternates packets", 0, wire, wire, 0.5},
		{"limit 0 asymmetric packets", 0, 1000, 500, 1000.0 / 1500.0},
		{"limit 1 allows 4096 bytes", 1, wire, wire, 4096.0 / (4096.0 + wire)},
		{"limit below one packet rounds up", 1, 8192, 512, 8192.0 / (8192.0 + 512.0)},
		{"degenerate zero wire", 3, 0, 0, 1.0},
		{"degenerate negative wire", 3, -5, wire, 1.0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := New(tc.limit)
			got := tb.HighLimitFraction(tc.hiWire, tc.loWire)
			if math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("HighLimitFraction(%d, %d) with limit %d = %g, want %g",
					tc.hiWire, tc.loWire, tc.limit, got, tc.want)
			}
			if math.IsNaN(got) || got <= 0 || got > 1 {
				t.Errorf("fraction %g outside (0, 1]", got)
			}
		})
	}
}
