package sim

import (
	"testing"
	"testing/quick"
)

func TestEmptyEngine(t *testing.T) {
	var e Engine
	if e.Now() != 0 || e.Pending() != 0 || e.Executed() != 0 {
		t.Error("zero engine not pristine")
	}
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestEventOrdering(t *testing.T) {
	var e Engine
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run(100)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 100 {
		t.Errorf("Now = %d, want 100 (run advanced to until)", e.Now())
	}
}

func TestFIFOAmongSimultaneous(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run(5)
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events out of FIFO order: %v", got)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	var e Engine
	fired := int64(-1)
	e.At(100, func() {
		e.After(50, func() { fired = e.Now() })
	})
	e.Run(1000)
	if fired != 150 {
		t.Errorf("After fired at %d, want 150", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var e Engine
	e.At(100, func() {})
	e.Run(100)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

func TestRunStopsAtUntil(t *testing.T) {
	var e Engine
	ran := 0
	e.At(10, func() { ran++ })
	e.At(20, func() { ran++ })
	e.At(30, func() { ran++ })
	e.Run(20)
	if ran != 2 {
		t.Errorf("ran %d events, want 2 (events at/before until)", ran)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	e.Run(30)
	if ran != 3 {
		t.Errorf("ran %d events after second Run, want 3", ran)
	}
}

func TestRunWhile(t *testing.T) {
	var e Engine
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(int64(i), func() { count++ })
	}
	e.RunWhile(func() bool { return count < 4 })
	if count != 4 {
		t.Errorf("count = %d, want 4", count)
	}
}

func TestCascadingEvents(t *testing.T) {
	var e Engine
	depth := 0
	var recurse func()
	recurse = func() {
		if depth < 100 {
			depth++
			e.After(1, recurse)
		}
	}
	e.At(0, recurse)
	e.Run(1000)
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if e.Executed() != 101 {
		t.Errorf("executed = %d, want 101", e.Executed())
	}
}

// TestClockMonotonicQuick: whatever the scheduling pattern, observed
// event times never decrease.
func TestClockMonotonicQuick(t *testing.T) {
	f := func(delays []uint16) bool {
		var e Engine
		last := int64(-1)
		monotonic := true
		for _, d := range delays {
			e.At(int64(d), func() {
				if e.Now() < last {
					monotonic = false
				}
				last = e.Now()
			})
		}
		e.Run(1 << 20)
		return monotonic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDeferRunsAtSameInstant(t *testing.T) {
	var e Engine
	var got []int
	e.At(10, func() {
		e.deferFunc(func() { got = append(got, 2) })
		got = append(got, 1)
	})
	e.At(10, func() { got = append(got, 3) })
	e.Run(10)
	// Deferred work runs right after the scheduling event, before the
	// next heap event at the same timestamp.
	want := []int{1, 2, 3}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestDeferOutsideEventContext(t *testing.T) {
	var e Engine
	ran := false
	e.deferFunc(func() { ran = true })
	e.Run(0)
	if !ran {
		t.Error("deferred work outside an event never ran")
	}
	ran2 := false
	e.deferFunc(func() { ran2 = true })
	if !e.Step() {
		t.Error("Step ignored pending deferred work")
	}
	if !ran2 {
		t.Error("Step did not drain deferred work")
	}
}

func TestDeferNested(t *testing.T) {
	var e Engine
	depth := 0
	var recurse func()
	recurse = func() {
		if depth < 50 {
			depth++
			e.deferFunc(recurse)
		}
	}
	e.At(0, recurse)
	e.Run(0)
	if depth != 50 {
		t.Errorf("nested deferred depth = %d, want 50", depth)
	}
}

// recorder is a test Handler that logs the A operand of every event it
// receives.
type recorder struct{ got []int32 }

func (r *recorder) HandleEvent(ev Event) { r.got = append(r.got, ev.A) }

func TestTypedAndClosureEventsShareFIFO(t *testing.T) {
	var e Engine
	r := &recorder{}
	order := []int32{}
	e.Post(5, r, Event{A: 1})
	e.At(5, func() { order = append(order, -2) })
	e.Post(5, r, Event{A: 3})
	e.DeferEvent(r, Event{A: 0})
	e.Run(10)
	// The deferred event runs first (time 0), then the three
	// simultaneous events at t=5 in posting order.
	want := []int32{0, 1, 3}
	if len(r.got) != 3 || r.got[0] != want[0] || r.got[1] != want[1] || r.got[2] != want[2] {
		t.Fatalf("typed order = %v, want %v", r.got, want)
	}
	if len(order) != 1 {
		t.Fatalf("closure at t=5 ran %d times", len(order))
	}
}

func TestCancelRemovesTimer(t *testing.T) {
	var e Engine
	r := &recorder{}
	tm := e.PostTimerAfter(10, r, Event{A: 7})
	keep := e.PostTimerAfter(20, r, Event{A: 8})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	if !e.Cancel(tm) {
		t.Fatal("Cancel of an armed timer returned false")
	}
	if e.Cancel(tm) {
		t.Fatal("double Cancel returned true")
	}
	e.Run(30)
	if len(r.got) != 1 || r.got[0] != 8 {
		t.Fatalf("events after cancel = %v, want [8]", r.got)
	}
	if e.Cancel(keep) {
		t.Fatal("Cancel of a fired timer returned true")
	}
	if s := e.Stats(); s.Canceled != 1 {
		t.Errorf("Canceled = %d, want 1", s.Canceled)
	}
}

func TestZeroTimerCancelIsNoop(t *testing.T) {
	var e Engine
	var tm Timer
	if e.Cancel(tm) {
		t.Fatal("Cancel of the zero Timer returned true")
	}
}

// TestPoolDisabledBitIdentical: the engine's own record pooling is
// invisible — a run with PoolDisabled executes the same events at the
// same times in the same order.
func TestPoolDisabledBitIdentical(t *testing.T) {
	run := func(disable bool) []int32 {
		e := Engine{PoolDisabled: disable}
		r := &recorder{}
		var step func()
		n := int32(0)
		step = func() {
			if n < 200 {
				n++
				e.Post(e.Now()+int64(n%7)+1, r, Event{A: n})
				e.After(int64(n%5)+1, step)
			}
		}
		e.At(0, step)
		e.Run(2000)
		return r.got
	}
	pooled, plain := run(false), run(true)
	if len(pooled) != len(plain) {
		t.Fatalf("lengths differ: %d vs %d", len(pooled), len(plain))
	}
	for i := range pooled {
		if pooled[i] != plain[i] {
			t.Fatalf("event %d differs: %d vs %d", i, pooled[i], plain[i])
		}
	}
}
