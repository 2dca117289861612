package sim

import (
	"fmt"
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

// at schedules fn at the absolute time t through After, for the tests
// written in absolute instants.
func at(e *Engine, t int64, fn func()) { e.After(t-e.Now(), fn) }

func TestEventOrdering(t *testing.T) {
	var e Engine
	var got []int
	at(&e, 30, func() { got = append(got, 3) })
	at(&e, 10, func() { got = append(got, 1) })
	at(&e, 20, func() { got = append(got, 2) })
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
		at(&e, 5, func() { got = append(got, i) })
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
	at(&e, 100, func() {
		e.After(50, func() { fired = e.Now() })
	})
	e.Run(1000)
	if fired != 150 {
		t.Errorf("After fired at %d, want 150", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var e Engine
	at(&e, 100, func() {})
	e.Run(100)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	at(&e, 50, func() {})
}

func TestRunStopsAtUntil(t *testing.T) {
	var e Engine
	ran := 0
	at(&e, 10, func() { ran++ })
	at(&e, 20, func() { ran++ })
	at(&e, 30, func() { ran++ })
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
		at(&e, int64(i), func() { count++ })
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
	at(&e, 0, recurse)
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
			at(&e, int64(d), func() {
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

// TestInstantEndRunsBeforeClockMoves: the end-of-instant phase runs
// once, after every event of its instant — those posted at Now by the
// instant's own handlers included — and before the clock moves; an
// instant nobody marked has none.
func TestInstantEndRunsBeforeClockMoves(t *testing.T) {
	var e Engine
	var got []string
	e.SetInstantEnd(func() int {
		got = append(got, fmt.Sprintf("phase@%d", e.Now()))
		return 2
	})
	at(&e, 10, func() {
		e.MarkInstant()
		got = append(got, "a")
		at(&e, 10, func() { got = append(got, "c") })
	})
	at(&e, 10, func() {
		e.MarkInstant()
		got = append(got, "b")
	})
	at(&e, 11, func() { got = append(got, "d") })
	at(&e, 12, func() {
		e.MarkInstant()
		got = append(got, "e")
	})
	e.Run(20)
	want := "[a b c phase@10 d e phase@12]"
	if fmt.Sprint(got) != want {
		t.Fatalf("order = %v, want %s", got, want)
	}
	if e.Executed() != 5+2*2 {
		t.Errorf("Executed = %d, want 5 events and 2 phases of 2 units", e.Executed())
	}
}

// TestInstantEndMarkedOutsideRunServedAtNow: a mark made between runs
// is served at Now — by the next Run, whatever its horizon, or as the
// next Step — before any later event, and NextTime reports it.
func TestInstantEndMarkedOutsideRunServedAtNow(t *testing.T) {
	var e Engine
	var at []int64
	e.SetInstantEnd(func() int {
		at = append(at, e.Now())
		return 1
	})
	e.Run(5)
	e.After(9-e.Now(), func() {})
	e.MarkInstant()
	if nt := e.NextTime(); nt != 5 {
		t.Fatalf("NextTime = %d with a phase due at 5", nt)
	}
	e.Run(5)
	if len(at) != 1 || at[0] != 5 {
		t.Fatalf("phase ran at %v, want [5]", at)
	}
	e.MarkInstant()
	if !e.Step() || len(at) != 2 || at[1] != 5 || e.Now() != 5 {
		t.Fatalf("Step: phase ran at %v, now %d; want a second phase at 5", at, e.Now())
	}
	if !e.Step() || e.Now() != 9 || len(at) != 2 {
		t.Fatalf("the next Step ran to %d with phases %v", e.Now(), at)
	}
	// The zero engine has no phase: a mark costs nothing.
	var z Engine
	z.MarkInstant()
	z.Run(3)
	if z.Now() != 3 || z.Executed() != 0 {
		t.Errorf("zero engine: now %d, executed %d", z.Now(), z.Executed())
	}
}

// TestInstantEndPostingAtNowPanics: a phase that posts into its own
// instant, or marks it again, breaks its contract and panics.
func TestInstantEndPostingAtNowPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		phase func(e *Engine)
	}{
		{"post at now", func(e *Engine) { at(e, e.Now(), func() {}) }},
		{"mark again", func(e *Engine) { e.MarkInstant() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e Engine
			e.SetInstantEnd(func() int {
				tc.phase(&e)
				return 1
			})
			at(&e, 4, e.MarkInstant)
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			e.Run(10)
		})
	}
	// Posting one byte-time ahead is what a phase is for.
	var e Engine
	ran := false
	e.SetInstantEnd(func() int {
		at(&e, e.Now()+1, func() { ran = true })
		return 1
	})
	at(&e, 4, e.MarkInstant)
	e.Run(10)
	if !ran {
		t.Error("the event a phase posted one byte-time ahead never ran")
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
	at(&e, 5, func() { order = append(order, -2) })
	e.Post(5, r, Event{A: 3})
	e.Post(0, r, Event{A: 0})
	e.Run(10)
	// The event at t=0 runs first, then the three simultaneous events
	// at t=5 in posting order.
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
		at(&e, 0, step)
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
