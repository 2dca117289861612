// Package sim provides a deterministic discrete-event simulation
// engine.  Time is an integer count of byte times (the time one byte
// needs on a 1x InfiniBand data link).  An Engine runs on one goroutine
// and is fully reproducible.  A fabric runs either on one engine or,
// sharded, on one engine per topology shard plus an optional control
// lane, which a Coordinator (shard.go) advances in conservative-
// lookahead windows: the shard engines of a window run in parallel, and
// a run's results depend on its shard count, never on how the
// goroutines were scheduled.  Independent configurations also run side
// by side, one set of engines each.
//
// # Typed events
//
// The hot path schedules typed events (Post, PostAfter): a small
// self-describing Event union dispatched to a Handler, instead of a
// heap-allocated closure per hop.  Event records live in a pooled
// slab, so steady-state scheduling allocates nothing: executed records
// return to a free-list and are reused by the next Post.  The closure
// API (After) remains for tests and the benchmark's churn loop; a
// closure is a typed event whose handler calls it, so both kinds share
// one queue and FIFO order among simultaneous events holds regardless
// of which API scheduled them.
//
// # The event queue
//
// The slab is indexed by a hierarchical timing wheel (Varghese and
// Lauck).  Level 0 is a ring of wheelSize = 2^12 buckets, one per byte
// time, each a FIFO list linked through the records, with an occupancy
// bitmap and a summary word over it.  It holds the events before the
// fourth 1 024-byte-time boundary after Now, a window of 3 073 to 4 096
// byte times.  Nearly every event a packet simulation schedules lands
// there — a packet's wire time plus the link latency — so Post is an
// append and an OR, and the next event is the first set bit at or after
// Now's bucket.
//
// Later events wait in the coarse levels 1 to numCoarse.  Each is a
// ring of 64 FIFO buckets with one occupancy word; a bucket of level 1
// spans 1 024 byte times and one of level k+1 spans 32 buckets of level
// k.  Level k holds the events before the second boundary of level
// k+1's bucket width after the one at or below Now, beyond what the
// levels below hold, so its events occupy at most 64 consecutive
// buckets; the top level spans 2^60 byte times a bucket and holds
// everything later, up to math.MaxInt64.  Which level
// holds time t is a function of t and Now alone.  When the clock
// advances, every coarse bucket whose span the level below now reaches
// cascades, before anything runs at the new time: its events move, in
// list order, to the levels their times now belong to.  All events of
// one timestamp therefore always share one bucket, a cascade keeps their
// order, and a direct Post appends behind them; so the events of a
// level-0 bucket are in scheduling order and append order is execution
// order.
//
// PostTimerAfter returns a cancelable handle: Cancel unlinks the event
// from its bucket in O(1) at whichever level holds it, and recycles its
// record — no tombstone stays behind, so NextTime is always exact.
// Generation counters on the records make stale handles (fired,
// canceled or recycled events) harmless — Cancel on one is a no-op
// returning false.
//
// # The end of an instant
//
// An engine may carry one end-of-instant phase (SetInstantEnd): work
// that must see every state change of a byte-time before it runs, such
// as the fabric's scheduling passes.  A model asks for it with
// MarkInstant; the phase then runs once Now's level-0 bucket has
// drained and before the clock moves, under Run, Step and RunWhile
// alike.  A mark made outside a run is served at Now when the next Run
// or Step starts.  The phase may schedule nothing earlier than Now+1:
// what it decides lands in a later instant, so it is the last work of
// its instant.
package sim

import (
	"math"
	"math/bits"

	"repro/internal/metrics"
)

// Kind discriminates the cases of a typed Event.  Each Handler owns
// its private kind space; the engine never interprets kinds.
type Kind int32

// Event is one typed, self-describing unit of scheduled work.  The
// operand fields carry whatever the handler's kind needs: small
// integers in A and B, a packed wide operand in N, and at most one
// pointer-shaped payload in P (storing a pointer in an interface does
// not allocate).
type Event struct {
	Kind Kind
	A, B int32
	N    int64
	P    any
}

// Handler dispatches typed events.  Models implement it with a switch
// over their kind space; the engine calls it once per executed typed
// event.
type Handler interface {
	HandleEvent(ev Event)
}

// Timer is a cancelable handle to a scheduled typed event.  The zero
// Timer is never armed.  A Timer stays valid after its event fired or
// was canceled: Cancel simply reports false.
type Timer struct {
	slot int32  // record slot + 1; 0 = never armed
	gen  uint32 // record generation at scheduling time
}

// record is one pooled event-record slot.  pos is the next link
// (slot+1, 0 = end) of a slot in a bucket or on the free-list; prev is
// the bucket's back link.
type record struct {
	at   int64
	gen  uint32 // bumped on every release; stale Timers can't match
	pos  int32
	prev int32
	h    Handler
	ev   Event
}

// funcHandler runs the closure API on the typed path: After schedules
// an Event whose P is the func (a func value in an interface does not
// allocate).
type funcHandler struct{}

func (funcHandler) HandleEvent(ev Event) { ev.P.(func())() }

// Level 0 is a ring of wheelSize one-byte-time buckets.  Coarse level k
// (1..numCoarse) is a ring of levelSize buckets of 2^shift(k) byte
// times, shift(k) = firstShift + levelStep·(k−1): 10, 15, …, 60.  Level
// k−1 ends at the reach(k−1)-th boundary of level k's bucket width
// after the one at or below Now: reach is wheelSize>>firstShift = 4
// for level 0 and levelSize>>levelStep = 2 above, so no level holds
// more than its ring's worth of buckets, and 2^60-byte-time buckets
// hold every time up to math.MaxInt64.  DESIGN.md §9 has the measured
// share of each level.
const (
	wheelBits  = 12
	wheelSize  = 1 << wheelBits
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64  // bitmap words
	wheelSums  = wheelWords / 64 // summary words

	levelSize  = 64 // buckets per coarse level: one occupancy word
	firstShift = 10 // level 1 buckets span 1 024 byte times
	levelStep  = 5  // a level's buckets are 32 times wider than the level below's
	numCoarse  = 11
	numLevels  = numCoarse + 1
)

// shift returns log2 of the bucket width of coarse level k.
func shift(k int) uint { return firstShift + levelStep*uint(k-1) }

// reach returns how many of level k+1's bucket widths level k's range
// extends to, counted from the boundary at or below Now.
func reach(k int) int64 {
	if k == 0 {
		return wheelSize >> firstShift
	}
	return levelSize >> levelStep
}

// levelOf returns the level that holds time t at clock now (t >= now).
func levelOf(t, now int64) int {
	if t>>firstShift-now>>firstShift < reach(0) {
		return 0
	}
	for k := 1; k < numCoarse; k++ {
		s := shift(k + 1)
		if t>>s-now>>s < reach(k) {
			return k
		}
	}
	return numCoarse
}

// bucket is the FIFO list of the events of one bucket, as slot+1 links
// into the record slab (0 = empty).  A level-0 bucket holds one
// timestamp at a time.
type bucket struct{ head, tail int32 }

// push appends slot and reports whether the bucket was empty.
func (b *bucket) push(recs []record, slot int32) bool {
	r := &recs[slot]
	r.pos, r.prev = 0, b.tail
	empty := b.tail == 0
	if empty {
		b.head = slot + 1
	} else {
		recs[b.tail-1].pos = slot + 1
	}
	b.tail = slot + 1
	return empty
}

// cut removes slot and reports whether the bucket is now empty.
func (b *bucket) cut(recs []record, slot int32) bool {
	r := &recs[slot]
	if r.prev != 0 {
		recs[r.prev-1].pos = r.pos
	} else {
		b.head = r.pos
	}
	if r.pos != 0 {
		recs[r.pos-1].prev = r.prev
	} else {
		b.tail = r.prev
	}
	return b.head == 0
}

// wheel is level 0, the ring of one-byte-time buckets with its
// occupancy bitmap: bit i of occ is set iff bucket i is non-empty, bit
// w of sum iff occ[w] != 0.
type wheel struct {
	sum     [wheelSums]uint64
	occ     [wheelWords]uint64
	buckets [wheelSize]bucket
}

func (w *wheel) mark(i uint) {
	w.occ[i>>6] |= 1 << (i & 63)
	w.sum[i>>12] |= 1 << (i >> 6 & 63)
}

func (w *wheel) clear(i uint) {
	w.occ[i>>6] &^= 1 << (i & 63)
	if w.occ[i>>6] == 0 {
		w.sum[i>>12] &^= 1 << (i >> 6 & 63)
	}
}

func (w *wheel) empty() bool {
	for _, s := range w.sum {
		if s != 0 {
			return false
		}
	}
	return true
}

// next returns the first non-empty bucket at or after p, cyclically.
// The wheel must not be empty.
func (w *wheel) next(p uint) uint {
	wi := (p >> 6) % wheelWords // p < wheelSize; the modulo only spares the bounds check
	if m := w.occ[wi] >> (p & 63); m != 0 {
		return p + uint(bits.TrailingZeros64(m))
	}
	// Sparse case: the summary names the next non-empty word after wi;
	// coming all the way round to wi finds its bits below p.
	q := (wi + 1) % wheelWords
	si := q >> 6
	m := w.sum[si] >> (q & 63) << (q & 63)
	for m == 0 {
		si = (si + 1) % wheelSums
		m = w.sum[si]
	}
	wi = (si<<6 + uint(bits.TrailingZeros64(m))) % wheelWords
	return wi<<6 + uint(bits.TrailingZeros64(w.occ[wi]))
}

// level is one coarse level: bit i of occ is set iff bucket i is
// non-empty.
type level struct {
	occ     uint64
	buckets [levelSize]bucket
}

// Engine is a discrete-event scheduler.  The zero value is ready to
// use.  It is not safe for concurrent use.
type Engine struct {
	now   int64
	count uint64 // events executed

	// Pooled event records.  Records never move, so Timers can address
	// them while the queue reorders around them.
	records []record
	free    int32 // free-list head, encoded slot+1; 0 = empty

	// The queue: an event at t sits in the level levelOf(t, now), in
	// bucket t&wheelMask of wheel or t>>shift(k)%levelSize of
	// coarse[k-1] (the last field, away from the hot ones).  advance is
	// the only place the clock moves, and it restores that placement
	// before anything else runs.  The wheel is allocated by the first
	// event level 0 receives.
	wheel   *wheel
	pending int // queued events, every level together

	// instantEnd is the end-of-instant phase (SetInstantEnd); due says
	// it has been asked for at Now and has not run since.
	instantEnd func() int
	due        bool

	// PoolDisabled, when set before a run, stops record recycling:
	// every Post takes a fresh slot from the slab.  Runs with and
	// without pooling are bit-identical (the determinism property
	// tests rely on this knob); it exists only for those tests.
	PoolDisabled bool

	// High-water, pool and level counters (see Stats).
	scheduled  uint64
	canceled   uint64
	poolReuse  uint64
	poolGrow   uint64
	maxPending int
	placed     [numLevels]int64
	cascaded   [numLevels]int64

	// Trace, when non-nil, is the event-trace ring the models driven
	// by this engine record their scheduling decisions into (the
	// fabric writes one TraceEvent per arbitration pick).  The engine
	// carries the buffer so every model sharing the engine shares one
	// time-ordered trace; nil disables tracing at a single branch.
	Trace *metrics.TraceBuffer

	coarse [numCoarse]level
}

// Now returns the current simulation time in byte times.
func (e *Engine) Now() int64 { return e.now }

// Executed returns the number of units of work processed so far: every
// executed event, plus what each end-of-instant phase reported.
func (e *Engine) Executed() uint64 { return e.count }

// NextTime returns the timestamp of the earliest pending work — Now()
// when the end-of-instant phase is due — or math.MaxInt64 when the
// engine is idle.  The shard coordinator computes its safe execution
// horizon from the minimum across engines.
func (e *Engine) NextTime() int64 {
	if e.due {
		return e.now
	}
	if e.pending == 0 {
		return math.MaxInt64
	}
	return e.nextQueued()
}

// nextQueued returns the timestamp of the earliest queued event; the
// queue must not be empty.  Each level's times precede the next
// level's, so the earliest event is level 0's first, or else lies in
// the first non-empty bucket of the lowest non-empty coarse level,
// whose events it scans.
func (e *Engine) nextQueued() int64 {
	if w := e.wheel; w != nil && !w.empty() {
		p := uint(e.now) & wheelMask
		return e.now + int64((w.next(p)-p)&wheelMask)
	}
	for j := range e.coarse {
		lv := &e.coarse[j]
		if lv.occ == 0 {
			continue
		}
		s := shift(j + 1)
		first := int(uint64(e.now>>s+reach(j)) % levelSize)
		i := (first + bits.TrailingZeros64(bits.RotateLeft64(lv.occ, -first))) % levelSize
		t := int64(math.MaxInt64)
		for slot := lv.buckets[i].head; slot != 0; slot = e.records[slot-1].pos {
			t = min(t, e.records[slot-1].at)
		}
		return t
	}
	panic("sim: nextQueued on an empty queue")
}

// Pending returns the number of scheduled, unexecuted queue events (a
// due end-of-instant phase is not counted).
func (e *Engine) Pending() int { return e.pending }

// Grow preallocates capacity for n in-flight events, so a simulation
// sized in advance never grows the record slab mid-run.
func (e *Engine) Grow(n int) {
	if cap(e.records) < n {
		r := make([]record, len(e.records), n)
		copy(r, e.records)
		e.records = r
	}
}

// RecordCapacity returns the capacity of the event-record slab.  A
// simulation sized in advance via Grow must finish with the capacity
// it started with; the preallocation regression tests pin that here.
func (e *Engine) RecordCapacity() int { return cap(e.records) }

// Stats exports the engine's event-pool, queue-depth and level
// counters (MaxHeapDepth is the high-water count of pending events,
// every level together).
func (e *Engine) Stats() metrics.EngineCounters {
	return metrics.EngineCounters{
		Scheduled:    int64(e.scheduled),
		Executed:     int64(e.count),
		Canceled:     int64(e.canceled),
		MaxHeapDepth: int64(e.maxPending),
		PoolReuse:    int64(e.poolReuse),
		PoolGrow:     int64(e.poolGrow),
		Placed:       e.placed,
		Cascaded:     e.cascaded,
	}
}

// --- scheduling ---

// After schedules fn to run d byte times from now.  A negative d
// panics: it would silently corrupt causality.
func (e *Engine) After(d int64, fn func()) { e.schedule(e.now+d, funcHandler{}, Event{P: fn}) }

// Post schedules a typed event for h at the absolute time t.  Like
// After it panics on a time before Now.
func (e *Engine) Post(t int64, h Handler, ev Event) {
	e.schedule(t, h, ev)
}

// PostAfter schedules a typed event d byte times from now.
func (e *Engine) PostAfter(d int64, h Handler, ev Event) {
	e.schedule(e.now+d, h, ev)
}

// PostTimerAfter schedules a cancelable typed event d byte times from
// now.
func (e *Engine) PostTimerAfter(d int64, h Handler, ev Event) Timer {
	return e.schedule(e.now+d, h, ev)
}

// Cancel removes a scheduled typed event before it fires.  It reports
// false — and does nothing — when the handle is zero, already fired,
// or already canceled, so settling code can cancel unconditionally.
func (e *Engine) Cancel(t Timer) bool {
	if t.slot == 0 {
		return false
	}
	slot := t.slot - 1
	if int(slot) >= len(e.records) {
		return false
	}
	r := &e.records[slot]
	if r.gen != t.gen {
		return false // fired, canceled or recycled
	}
	e.unlink(slot)
	e.release(slot)
	e.pending--
	e.canceled++
	return true
}

// SetInstantEnd installs fn as the end-of-instant phase.  fn runs at
// most once per instant, after Now's last event and only when
// MarkInstant asked for it; it returns the units of work it did, which
// Executed counts.  It must schedule nothing earlier than Now+1 and
// mark nothing: the engine panics otherwise.
func (e *Engine) SetInstantEnd(fn func() int) { e.instantEnd = fn }

// MarkInstant asks for the end-of-instant phase at Now.  Marks made
// during one instant are served by one phase; a mark made outside a run
// is served at Now when the next Run or Step starts.
func (e *Engine) MarkInstant() { e.due = true }

// schedule allocates a record for one event and queues it in the level
// that holds its time.
func (e *Engine) schedule(t int64, h Handler, ev Event) Timer {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	slot := e.alloc()
	r := &e.records[slot]
	r.at = t
	r.h, r.ev = h, ev
	e.scheduled++
	e.placed[e.link(slot)]++
	e.pending++
	if e.pending > e.maxPending {
		e.maxPending = e.pending
	}
	return Timer{slot: slot + 1, gen: r.gen}
}

// alloc takes a record slot from the free-list, or grows the slab.
func (e *Engine) alloc() int32 {
	if e.free != 0 && !e.PoolDisabled {
		slot := e.free - 1
		e.free = e.records[slot].pos
		e.poolReuse++
		return slot
	}
	e.records = append(e.records, record{})
	e.poolGrow++
	return int32(len(e.records) - 1)
}

// release returns a slot to the free-list, bumping its generation so
// stale Timers addressing it can never match again, and dropping its
// payload references.
func (e *Engine) release(slot int32) {
	r := &e.records[slot]
	r.gen++
	r.h = nil
	r.ev = Event{}
	if e.PoolDisabled {
		return
	}
	r.pos = e.free
	e.free = slot + 1
}

// --- execution ---

// drained reports whether Now's level-0 bucket holds no event.
func (e *Engine) drained() bool {
	return e.wheel == nil || e.wheel.buckets[uint(e.now)&wheelMask].head == 0
}

// endInstant runs the end-of-instant phase and holds it to its
// contract: nothing it did may land at Now.
func (e *Engine) endInstant() {
	e.due = false
	if e.instantEnd == nil {
		return
	}
	e.count += uint64(e.instantEnd())
	if e.due || !e.drained() {
		panic("sim: the end-of-instant phase scheduled work at its own instant")
	}
}

// advance moves the clock to t (no later than any queued event) and
// cascades every coarse bucket the level below now reaches, lowest
// level first: a moved event goes straight to the level that holds its
// time at t, whose stale buckets are already gone, so a ring never
// holds two spans in one bucket.  Direct inserts for a cascaded time
// are possible only from now on, so they append behind it.
func (e *Engine) advance(t int64) {
	old := e.now
	e.now = t
	for j := range e.coarse {
		s := shift(j + 1)
		d := uint64(t>>s - old>>s) // boundaries of level j+1's width crossed
		if d == 0 {
			return // and none of any wider level
		}
		lv := &e.coarse[j]
		if lv.occ == 0 {
			continue
		}
		// Level j's range grew by the d buckets of level j+1 after its
		// old end.
		m := lv.occ
		if d < levelSize {
			first := int(uint64(old>>s+reach(j)) % levelSize)
			m &= bits.RotateLeft64(1<<d-1, first)
		}
		lv.occ &^= m
		for ; m != 0; m &= m - 1 {
			b := &lv.buckets[bits.TrailingZeros64(m)]
			for slot := b.head; slot != 0; {
				next := e.records[slot-1].pos
				e.link(slot - 1)
				e.cascaded[j+1]++
				slot = next
			}
			*b = bucket{}
		}
	}
}

// fire executes the first event of Now's level-0 bucket.
func (e *Engine) fire() {
	i := uint(e.now) & wheelMask
	w := e.wheel
	b := &w.buckets[i]
	slot := b.head - 1
	r := &e.records[slot]
	b.head = r.pos
	if r.pos != 0 {
		e.records[r.pos-1].prev = 0
	} else {
		b.tail = 0
		w.clear(i)
	}
	e.pending--
	h, ev := r.h, r.ev
	e.release(slot) // before dispatch: the handler may schedule into this slot
	e.count++
	h.HandleEvent(ev)
}

// Step executes the earliest pending work — a due end-of-instant phase
// whose instant has no event left, else the earliest queued event —
// advancing the clock as needed; the event that drains its instant's
// bucket is followed by the phase, if due.  It reports false when
// nothing remains.
func (e *Engine) Step() bool {
	if e.due && e.drained() {
		e.endInstant()
		return true
	}
	if e.pending == 0 {
		return false
	}
	if t := e.nextQueued(); t != e.now {
		e.advance(t)
	}
	e.fire()
	if e.due && e.drained() {
		e.endInstant()
	}
	return true
}

// Run executes events until the queue is empty or the next event lies
// beyond the until timestamp; the clock ends at min(until, last event
// time).  Events scheduled exactly at until are executed, and every
// instant executed ends with its due end-of-instant phase.
func (e *Engine) Run(until int64) {
	if e.due && e.drained() {
		e.endInstant()
	}
	for e.pending > 0 {
		t := e.nextQueued()
		if t > until {
			break
		}
		if t != e.now {
			e.advance(t)
		}
		// Drain the bucket: events its handlers post at Now append
		// behind the cursor and run in turn.
		for b := &e.wheel.buckets[t&wheelMask]; b.head != 0; {
			e.fire()
		}
		if e.due {
			e.endInstant()
		}
	}
	if e.now < until {
		e.advance(until)
	}
}

// RunWhile executes events while cond() holds and events remain.  The
// condition is evaluated before every Step.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

// --- placement: FIFO buckets linked through the records ---

// link appends slot to its bucket in the level that holds its time,
// and returns that level.
func (e *Engine) link(slot int32) int {
	t := e.records[slot].at
	k := levelOf(t, e.now)
	if k == 0 {
		w := e.wheel
		if w == nil {
			w = new(wheel)
			e.wheel = w
		}
		i := uint(t) & wheelMask
		if w.buckets[i].push(e.records, slot) {
			w.mark(i)
		}
		return 0
	}
	lv := &e.coarse[k-1]
	i := uint(t>>shift(k)) % levelSize
	if lv.buckets[i].push(e.records, slot) {
		lv.occ |= 1 << i
	}
	return k
}

// unlink removes slot from its bucket.
func (e *Engine) unlink(slot int32) {
	t := e.records[slot].at
	k := levelOf(t, e.now)
	if k == 0 {
		i := uint(t) & wheelMask
		if e.wheel.buckets[i].cut(e.records, slot) {
			e.wheel.clear(i)
		}
		return
	}
	lv := &e.coarse[k-1]
	i := uint(t>>shift(k)) % levelSize
	if lv.buckets[i].cut(e.records, slot) {
		lv.occ &^= 1 << i
	}
}
