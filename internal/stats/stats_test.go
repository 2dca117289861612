package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDelayCDFEmpty(t *testing.T) {
	d := NewDelayCDF()
	if d.Total() != 0 || d.PercentBelow(0) != 0 || d.MeanRatio() != 0 {
		t.Error("empty CDF not zero")
	}
}

func TestDelayCDFBuckets(t *testing.T) {
	d := NewDelayCDF()
	// One packet per bucket boundary region.
	d.Add(0.01) // <= 1/32
	d.Add(0.04) // (1/32, 1/16]
	d.Add(0.1)  // (1/16, 1/8]
	d.Add(0.2)  // (1/8, 1/4]
	d.Add(0.4)  // (1/4, 1/2]
	d.Add(0.7)  // (1/2, 3/4]
	d.Add(0.9)  // (3/4, 1]
	d.Add(1.5)  // beyond deadline
	if d.Total() != 8 {
		t.Fatalf("total = %d, want 8", d.Total())
	}
	wantCum := []float64{12.5, 25, 37.5, 50, 62.5, 75, 87.5}
	for i, w := range wantCum {
		if got := d.PercentBelow(i); math.Abs(got-w) > 1e-9 {
			t.Errorf("PercentBelow(%d) = %g, want %g", i, got, w)
		}
	}
	if got := d.PercentMeetingDeadline(); math.Abs(got-87.5) > 1e-9 {
		t.Errorf("PercentMeetingDeadline = %g, want 87.5", got)
	}
	if d.MaxRatio() != 1.5 {
		t.Errorf("MaxRatio = %g, want 1.5", d.MaxRatio())
	}
}

func TestDelayCDFBoundaryInclusive(t *testing.T) {
	d := NewDelayCDF()
	d.Add(1.0) // exactly at the deadline counts as meeting it
	if got := d.PercentMeetingDeadline(); got != 100 {
		t.Errorf("deadline-exact packet: %g%%, want 100%%", got)
	}
}

func TestDelayCDFMerge(t *testing.T) {
	a, b := NewDelayCDF(), NewDelayCDF()
	a.Add(0.1)
	a.Add(0.9)
	b.Add(2.0)
	a.Merge(b)
	if a.Total() != 3 {
		t.Fatalf("merged total = %d, want 3", a.Total())
	}
	if got := a.PercentMeetingDeadline(); math.Abs(got-100*2.0/3) > 1e-9 {
		t.Errorf("merged deadline%% = %g", got)
	}
	if a.MaxRatio() != 2.0 {
		t.Errorf("merged max = %g, want 2", a.MaxRatio())
	}
}

// TestResetInPlace: a reset distribution is indistinguishable from a
// fresh one and records again, without a new object.
func TestResetInPlace(t *testing.T) {
	d := NewDelayCDF()
	d.Add(0.1)
	d.Add(2.0)
	d.Reset()
	if !reflect.DeepEqual(d, NewDelayCDF()) {
		t.Errorf("reset DelayCDF = %+v, want the empty distribution", d)
	}
	d.Add(0.5)
	if d.Total() != 1 || d.MaxRatio() != 0.5 || d.PercentMeetingDeadline() != 100 {
		t.Errorf("after reset + one sample: total %d, max %g, met %g%%", d.Total(), d.MaxRatio(), d.PercentMeetingDeadline())
	}
	if allocs := testing.AllocsPerRun(100, d.Reset); allocs != 0 {
		t.Errorf("Reset allocates %.0f objects, want 0", allocs)
	}
}

func TestDelayCDFMeanQuick(t *testing.T) {
	f := func(ratios []float64) bool {
		d := NewDelayCDF()
		sum := 0.0
		n := 0
		for _, r := range ratios {
			// Realistic delay/deadline ratios are small non-negative
			// numbers; keep the property in the meaningful range.
			if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 || r > 1e6 {
				continue
			}
			d.Add(r)
			sum += r
			n++
		}
		if n == 0 {
			return d.MeanRatio() == 0
		}
		return math.Abs(d.MeanRatio()-sum/float64(n)) <= 1e-9*(1+math.Abs(sum))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJitterHistBuckets(t *testing.T) {
	var j JitterHist
	j.Add(0)      // central
	j.Add(0.124)  // central
	j.Add(-0.124) // central
	j.Add(0.5)    // [1/2, 3/4)
	j.Add(-2)     // < -IAT tail
	j.Add(3)      // >= +IAT tail
	if j.Total() != 6 {
		t.Fatalf("total = %d, want 6", j.Total())
	}
	if got := j.CentralPercent(); math.Abs(got-50) > 1e-9 {
		t.Errorf("central%% = %g, want 50", got)
	}
	if got := j.Percent(0); math.Abs(got-100.0/6) > 1e-9 {
		t.Errorf("early tail%% = %g", got)
	}
	if got := j.Percent(JitterBuckets - 1); math.Abs(got-100.0/6) > 1e-9 {
		t.Errorf("late tail%% = %g", got)
	}
}

func TestJitterLabelsMatchBuckets(t *testing.T) {
	if len(JitterLabels) != JitterBuckets {
		t.Fatalf("%d labels for %d buckets", len(JitterLabels), JitterBuckets)
	}
	if len(JitterEdges)+1 != JitterBuckets {
		t.Fatalf("%d edges for %d buckets", len(JitterEdges), JitterBuckets)
	}
}

func TestDelayBucketsMatchFractions(t *testing.T) {
	if len(DelayFractions)+1 != delayBuckets {
		t.Fatalf("%d fractions for %d buckets", len(DelayFractions), delayBuckets)
	}
}

func TestJitterMerge(t *testing.T) {
	var a, b JitterHist
	a.Add(0)
	b.Add(0)
	b.Add(5)
	a.Merge(&b)
	if a.Total() != 3 {
		t.Fatalf("merged total = %d, want 3", a.Total())
	}
	if got := a.CentralPercent(); math.Abs(got-100.0*2/3) > 1e-9 {
		t.Errorf("merged central%% = %g", got)
	}
}

func TestJitterBucketCoverageQuick(t *testing.T) {
	f := func(vals []float64) bool {
		var j JitterHist
		n := int64(0)
		for _, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			j.Add(v)
			n++
		}
		return j.Total() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeter(t *testing.T) {
	var m Meter
	m.Add(100)
	m.Add(156)
	if m.Bytes != 256 {
		t.Errorf("meter = %+v", m)
	}
	if u := m.Utilization(512); math.Abs(u-0.5) > 1e-9 {
		t.Errorf("utilization = %g, want 0.5", u)
	}
	if u := m.Utilization(0); u != 0 {
		t.Errorf("zero-interval utilization = %g", u)
	}
}
