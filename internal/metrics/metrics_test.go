package metrics

import (
	"reflect"
	"testing"
)

// TestNilSafety: every update and read must be a no-op on nil
// receivers, since models hold possibly-nil pointers and call
// unconditionally.
func TestNilSafety(t *testing.T) {
	var m *Metrics
	m.AddVLBytes(3, 100)
	m.ObserveQueueDepth(5)
	m.CountDelivery(true)
	if s := m.Snapshot(); s.Picks != 0 || s.Deliveries != 0 {
		t.Errorf("nil snapshot not zero: %+v", s)
	}

	var h *Hist
	h.observe(7)
	if h.mean() != 0 {
		t.Error("nil hist mean not zero")
	}

	var tb *TraceBuffer
	tb.Record(TraceEvent{Time: 1})
	if tb.held() != 0 || tb.Recorded() != 0 || tb.Dropped() != 0 || tb.Events() != nil {
		t.Error("nil trace buffer not inert")
	}
}

func TestHistBuckets(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1 << 40, -5} {
		h.observe(v)
	}
	// buckets: 0 -> {0, -5}, 1 -> {1}, 2 -> {2,3}, 3 -> {4,7}, 4 -> {8},
	// tail -> {1<<40}
	want := map[int]int64{0: 2, 1: 1, 2: 2, 3: 2, 4: 1, 15: 1}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if h.Max != 1<<40 || h.N != 9 {
		t.Errorf("max/n = %d/%d", h.Max, h.N)
	}
}

func TestSnapshotDerived(t *testing.T) {
	m := New()
	m.Arb.Picks = 4
	m.Arb.EntriesVisited = 10
	m.AddVLBytes(2, 300)
	m.AddVLBytes(2, 300)
	m.AddVLBytes(9, 50)
	m.AddVLBytes(-1, 999) // out of range: ignored
	m.AddVLBytes(NumVLs, 999)
	m.CountDelivery(false)
	m.CountDelivery(true)

	s := m.Snapshot()
	if s.MeanEntriesPerPick != 2.5 {
		t.Errorf("mean entries per pick = %v", s.MeanEntriesPerPick)
	}
	if s.MissPercent != 50 {
		t.Errorf("miss percent = %v", s.MissPercent)
	}
	wantVL := []VLSnapshot{{VL: 2, Bytes: 600, Packets: 2}, {VL: 9, Bytes: 50, Packets: 1}}
	if !reflect.DeepEqual(s.PerVL, wantVL) {
		t.Errorf("per-VL = %+v, want %+v", s.PerVL, wantVL)
	}
}

func TestTraceRing(t *testing.T) {
	tb := NewTraceBuffer(4)
	for i := 0; i < 10; i++ {
		tb.Record(TraceEvent{Time: int64(i)})
	}
	if tb.held() != 4 || tb.Recorded() != 10 || tb.Dropped() != 6 {
		t.Fatalf("len/recorded/dropped = %d/%d/%d", tb.held(), tb.Recorded(), tb.Dropped())
	}
	ev := tb.Events()
	for i, e := range ev {
		if want := int64(6 + i); e.Time != want {
			t.Errorf("event %d time %d, want %d (oldest-first)", i, e.Time, want)
		}
	}

	// A partially filled ring returns only what was recorded.
	tb2 := NewTraceBuffer(8)
	tb2.Record(TraceEvent{Time: 42})
	if got := tb2.Events(); len(got) != 1 || got[0].Time != 42 || tb2.Dropped() != 0 {
		t.Errorf("partial ring: %+v dropped=%d", got, tb2.Dropped())
	}

	// Degenerate capacity clamps to 1.
	tb3 := NewTraceBuffer(0)
	tb3.Record(TraceEvent{Time: 1})
	tb3.Record(TraceEvent{Time: 2})
	if got := tb3.Events(); len(got) != 1 || got[0].Time != 2 {
		t.Errorf("capacity-1 ring: %+v", got)
	}
}

// TestRecordNoAlloc: recording into the ring must not allocate.
func TestRecordNoAlloc(t *testing.T) {
	tb := NewTraceBuffer(16)
	m := New()
	allocs := testing.AllocsPerRun(1000, func() {
		tb.Record(TraceEvent{Time: 1, Port: 2, VL: 3})
		m.AddVLBytes(3, 300)
		m.ObserveQueueDepth(4)
		m.CountDelivery(false)
	})
	if allocs != 0 {
		t.Fatalf("metrics hot path allocates %.1f per op", allocs)
	}
}
