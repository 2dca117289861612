// Package sim provides a deterministic discrete-event simulation
// engine.  Time is an integer count of byte times (the time one byte
// needs on a 1x InfiniBand data link); all models in the fabric
// schedule work on a single engine, so a run is single-goroutine and
// fully reproducible.  Parallelism in the benchmark harness comes from
// running independent engines concurrently, one per configuration.
//
// # Typed events
//
// The hot path schedules typed events (Post, PostAfter, DeferEvent): a
// small self-describing Event union dispatched to a Handler, instead
// of a heap-allocated closure per hop.  Event records live in a pooled
// slab, so steady-state scheduling allocates nothing: executed records
// return to a free-list and are reused by the next Post.  The closure
// API (At, After) remains for cold paths and tests; a closure is
// a typed event whose handler calls it, so both kinds share one queue
// and one sequence-number space and FIFO order among simultaneous
// events holds regardless of which API scheduled them.
//
// # The event queue
//
// The slab is indexed by a timing wheel: a ring of wheelSize buckets,
// one per byte time of the window [Now, Now+wheelSize), each a FIFO
// list linked through the records, with an occupancy bitmap (and one
// summary word per 64 bitmap words) over the buckets.  Nearly every
// event a packet simulation schedules lands inside that window — a
// packet's wire time plus the link latency — so Post is an append and
// an OR, and the next event is the first set bit at or after Now's
// bucket.  Events at or beyond the window wait in the overflow level,
// a 4-ary indexed heap ordered by (time, sequence), and move into
// their bucket the moment the clock advances far enough for the window
// to cover them, before anything runs at the new time; every event of
// a bucket therefore arrives in (time, sequence) order and append
// order is execution order.
//
// PostTimerAfter returns a cancelable handle: Cancel unlinks the event from
// its bucket in O(1), or removes it from the overflow heap in
// O(log n), and recycles its record — no tombstone stays behind, so
// NextTime is always exact.  Generation counters on the records make
// stale handles (fired, canceled or recycled events) harmless — Cancel
// on one is a no-op returning false.
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

// record is one pooled event-record slot.  pos is the heap index of a
// slot in the overflow heap and the next link (slot+1, 0 = end) of a
// slot in a wheel bucket or on the free-list; prev is the bucket's
// back link.
type record struct {
	at   int64
	seq  uint64 // tie-break in the overflow heap: FIFO among simultaneous events
	gen  uint32 // bumped on every release; stale Timers can't match
	pos  int32
	prev int32
	h    Handler
	ev   Event
}

// deferredWork is one same-instant follow-up.
type deferredWork struct {
	h  Handler
	ev Event
}

// funcHandler runs the closure API on the typed path: At and After
// schedule an Event whose P is the func (a func value in an interface
// does not allocate).
type funcHandler struct{}

func (funcHandler) HandleEvent(ev Event) { ev.P.(func())() }

// The wheel covers the wheelSize byte times from Now on.  Measured on
// the k=8 fat-tree packet workload (2.56 M events, seed 7): 91.1 % of
// events are scheduled less than 1 024 byte times ahead, 8.5 % between
// 4 096 and 16 383 (flow inter-arrivals) and 0.3 % beyond; 2^14 keeps
// all but those 0.3 % out of the overflow heap for 130 kB of ring per
// engine; 2^13 sends 2.1 % through the heap for half the ring and
// measures the same speed (DESIGN.md §9 has the runs).
const (
	wheelBits  = 14
	wheelSize  = 1 << wheelBits
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64  // bitmap words
	wheelSums  = wheelWords / 64 // summary words
)

// bucket is the FIFO list of the events of one byte time, as slot+1
// links into the record slab (0 = empty).
type bucket struct{ head, tail int32 }

// wheel is the ring of buckets with its occupancy bitmap: bit i of
// occ is set iff bucket i is non-empty, bit w of sum iff occ[w] != 0.
type wheel struct {
	sum     [wheelSums]uint64
	occ     [wheelWords]uint64
	buckets [wheelSize]bucket
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

// Engine is a discrete-event scheduler.  The zero value is ready to
// use.  It is not safe for concurrent use.
type Engine struct {
	now    int64
	nextID uint64
	count  uint64 // events executed

	// Pooled event records.  Records never move, so Timers can address
	// them while the queue reorders around them.
	records []record
	free    int32 // free-list head, encoded slot+1; 0 = empty

	// The queue: events with at-now < wheelSize sit in wheel bucket
	// at&wheelMask (so a bucket holds one timestamp at a time), all
	// later ones in the 4-ary indexed heap of slot indices ordered by
	// (at, seq).  advance is the only place the clock moves, and it
	// restores that split before anything else runs.  The wheel is
	// allocated by the first near event.
	wheel  *wheel
	wheelN int // events in the wheel
	heap   []int32

	// deferred holds zero-delay work scheduled from within the current
	// event; it runs FIFO at the same timestamp without touching the
	// queue.
	deferred []deferredWork

	// PoolDisabled, when set before a run, stops record recycling:
	// every Post takes a fresh slot from the slab.  Runs with and
	// without pooling are bit-identical (the determinism property
	// tests rely on this knob); it exists only for those tests.
	PoolDisabled bool

	// High-water and pool counters (see Stats).
	scheduled   uint64
	canceled    uint64
	poolReuse   uint64
	poolGrow    uint64
	maxPending  int
	maxDeferred int

	// Trace, when non-nil, is the event-trace ring the models driven
	// by this engine record their scheduling decisions into (the
	// fabric writes one TraceEvent per arbitration pick).  The engine
	// carries the buffer so every model sharing the engine shares one
	// time-ordered trace; nil disables tracing at a single branch.
	Trace *metrics.TraceBuffer
}

// Now returns the current simulation time in byte times.
func (e *Engine) Now() int64 { return e.now }

// Executed returns the number of events processed so far.
func (e *Engine) Executed() uint64 { return e.count }

// NextTime returns the timestamp of the earliest pending work — Now()
// when same-instant deferred work is queued — or math.MaxInt64 when
// the engine is idle.  The shard coordinator computes its safe
// execution horizon from the minimum across engines.
func (e *Engine) NextTime() int64 {
	if len(e.deferred) > 0 {
		return e.now
	}
	if e.Pending() == 0 {
		return math.MaxInt64
	}
	return e.nextQueued()
}

// nextQueued returns the timestamp of the earliest queued event; the
// queue must not be empty.  Every wheel event precedes every heap
// event.
func (e *Engine) nextQueued() int64 {
	if e.wheelN == 0 {
		return e.records[e.heap[0]].at
	}
	p := uint(e.now) & wheelMask
	return e.now + int64((e.wheel.next(p)-p)&wheelMask)
}

// Pending returns the number of scheduled, unexecuted queue events
// (deferred same-instant work is not counted, matching Step's notion
// of "the queue").
func (e *Engine) Pending() int { return e.wheelN + len(e.heap) }

// Grow preallocates capacity for n in-flight events, so a simulation
// sized in advance never grows the record slab or heap mid-run.
func (e *Engine) Grow(n int) {
	if cap(e.records) < n {
		r := make([]record, len(e.records), n)
		copy(r, e.records)
		e.records = r
	}
	if cap(e.heap) < n {
		h := make([]int32, len(e.heap), n)
		copy(h, e.heap)
		e.heap = h
	}
}

// RecordCapacity returns the capacity of the event-record slab.  A
// simulation sized in advance via Grow must finish with the capacity
// it started with; the preallocation regression tests pin that here.
func (e *Engine) RecordCapacity() int { return cap(e.records) }

// Stats exports the engine's event-pool and queue-depth counters
// (MaxHeapDepth is the high-water count of pending events, wheel and
// overflow heap together).
func (e *Engine) Stats() metrics.EngineCounters {
	return metrics.EngineCounters{
		Scheduled:    int64(e.scheduled),
		Executed:     int64(e.count),
		Canceled:     int64(e.canceled),
		MaxHeapDepth: int64(e.maxPending),
		MaxDeferred:  int64(e.maxDeferred),
		PoolReuse:    int64(e.poolReuse),
		PoolGrow:     int64(e.poolGrow),
	}
}

// --- scheduling ---

// At schedules fn to run at the absolute time t.  Scheduling in the
// past (t < Now) panics: it would silently corrupt causality.
func (e *Engine) At(t int64, fn func()) {
	e.schedule(t, funcHandler{}, Event{P: fn})
}

// After schedules fn to run d byte times from now.
func (e *Engine) After(d int64, fn func()) { e.At(e.now+d, fn) }

// Post schedules a typed event for h at the absolute time t.  Like At
// it panics on t < Now.
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
	if r.at-e.now < wheelSize {
		e.unlink(slot)
	} else {
		e.removeAt(int(r.pos))
	}
	e.release(slot)
	e.canceled++
	return true
}

// DeferEvent schedules a typed event to run at the current timestamp,
// after the currently executing event (and previously deferred work)
// finishes: a same-instant FIFO follow-up with no queue insert and no
// closure.
func (e *Engine) DeferEvent(h Handler, ev Event) {
	e.deferred = append(e.deferred, deferredWork{h: h, ev: ev})
	if len(e.deferred) > e.maxDeferred {
		e.maxDeferred = len(e.deferred)
	}
}

// schedule allocates a record for one event and queues it: in its
// wheel bucket when the wheel's window covers t, else on the overflow
// heap.
func (e *Engine) schedule(t int64, h Handler, ev Event) Timer {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	slot := e.alloc()
	r := &e.records[slot]
	r.at, r.seq = t, e.nextID
	r.h, r.ev = h, ev
	e.nextID++
	e.scheduled++
	if t-e.now < wheelSize {
		e.link(slot)
	} else {
		e.push(slot)
	}
	if n := e.Pending(); n > e.maxPending {
		e.maxPending = n
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

// drainDeferred runs deferred work until none is left.  Deferred
// functions may defer more work; it runs in FIFO order.
func (e *Engine) drainDeferred() {
	for i := 0; i < len(e.deferred); i++ {
		d := e.deferred[i]
		e.deferred[i] = deferredWork{}
		e.count++
		d.h.HandleEvent(d.ev)
	}
	e.deferred = e.deferred[:0]
}

// advance moves the clock to t and migrates every overflow event the
// wheel's window now covers into its bucket, in (at, seq) order.  The
// buckets they land in lie behind the old window's first event, so
// they are empty, and no event can be scheduled directly into them
// before advance returns: append order within a bucket stays (at, seq)
// order.
func (e *Engine) advance(t int64) {
	e.now = t
	for len(e.heap) > 0 && e.records[e.heap[0]].at-t < wheelSize {
		e.link(e.popMin())
	}
}

// fire executes the queued wheel event in slot, then the work it
// deferred.
func (e *Engine) fire(slot int32) {
	e.unlink(slot)
	r := &e.records[slot]
	h, ev := r.h, r.ev
	e.release(slot) // before dispatch: the handler may schedule into this slot
	e.count++
	h.HandleEvent(ev)
	e.drainDeferred()
}

// Step executes the earliest pending work — deferred same-instant
// functions first, then the earliest queued event — advancing the
// clock as needed.  It reports false when nothing remains.
func (e *Engine) Step() bool {
	if len(e.deferred) > 0 {
		e.drainDeferred()
		return true
	}
	if e.Pending() == 0 {
		return false
	}
	if t := e.nextQueued(); t != e.now {
		e.advance(t)
	}
	e.fire(e.wheel.buckets[e.now&wheelMask].head - 1)
	return true
}

// Run executes events until the queue is empty or the next event lies
// beyond the until timestamp; the clock ends at min(until, last event
// time).  Events scheduled exactly at until are executed.
func (e *Engine) Run(until int64) {
	e.drainDeferred()
	for e.Pending() > 0 {
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
			e.fire(b.head - 1)
		}
	}
	if e.now < until {
		e.advance(until)
	}
}

// RunWhile executes events while cond() holds and events remain.  The
// condition is evaluated before every event.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

// --- the wheel: per-byte-time FIFO buckets linked through the records ---

// link appends slot to the bucket of its timestamp, which the wheel's
// window must cover.
func (e *Engine) link(slot int32) {
	w := e.wheel
	if w == nil {
		w = new(wheel)
		e.wheel = w
	}
	r := &e.records[slot]
	i := uint(r.at) & wheelMask
	b := &w.buckets[i]
	r.pos, r.prev = 0, b.tail
	if b.tail != 0 {
		e.records[b.tail-1].pos = slot + 1
	} else {
		b.head = slot + 1
		w.occ[i>>6] |= 1 << (i & 63)
		w.sum[i>>12] |= 1 << (i >> 6 & 63)
	}
	b.tail = slot + 1
	e.wheelN++
}

// unlink removes slot from its bucket.
func (e *Engine) unlink(slot int32) {
	w := e.wheel
	r := &e.records[slot]
	i := uint(r.at) & wheelMask
	b := &w.buckets[i]
	if r.prev != 0 {
		e.records[r.prev-1].pos = r.pos
	} else {
		b.head = r.pos
	}
	if r.pos != 0 {
		e.records[r.pos-1].prev = r.prev
	} else {
		b.tail = r.prev
	}
	if b.head == 0 {
		w.occ[i>>6] &^= 1 << (i & 63)
		if w.occ[i>>6] == 0 {
			w.sum[i>>12] &^= 1 << (i >> 6 & 63)
		}
	}
	e.wheelN--
}

// --- the overflow level: 4-ary indexed heap over record slots, ordered by (at, seq) ---

// less orders two record slots by time, then by scheduling order.
func (e *Engine) less(a, b int32) bool {
	ra, rb := &e.records[a], &e.records[b]
	if ra.at != rb.at {
		return ra.at < rb.at
	}
	return ra.seq < rb.seq
}

// push appends a slot and restores the heap property upward.
func (e *Engine) push(slot int32) {
	e.heap = append(e.heap, slot)
	e.records[slot].pos = int32(len(e.heap) - 1)
	e.siftUp(len(e.heap) - 1)
}

// popMin removes and returns the earliest slot.
func (e *Engine) popMin() int32 {
	root := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	if last > 0 {
		e.records[e.heap[0]].pos = 0
		e.siftDown(0)
	}
	return root
}

// removeAt deletes the heap element at index i (for Cancel).
func (e *Engine) removeAt(i int) {
	last := len(e.heap) - 1
	moved := e.heap[last]
	e.heap[i] = moved
	e.heap = e.heap[:last]
	if i < last {
		e.records[moved].pos = int32(i)
		e.siftDown(i)
		e.siftUp(int(e.records[moved].pos))
	}
}

// siftUp moves the element at index i toward the root until its parent
// is no later.
func (e *Engine) siftUp(i int) {
	slot := e.heap[i]
	for i > 0 {
		p := (i - 1) >> 2
		ps := e.heap[p]
		if !e.less(slot, ps) {
			break
		}
		e.heap[i] = ps
		e.records[ps].pos = int32(i)
		i = p
	}
	e.heap[i] = slot
	e.records[slot].pos = int32(i)
}

// siftDown moves the element at index i toward the leaves until no
// child is earlier.
func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	slot := e.heap[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if e.less(e.heap[k], e.heap[best]) {
				best = k
			}
		}
		if !e.less(e.heap[best], slot) {
			break
		}
		e.heap[i] = e.heap[best]
		e.records[e.heap[i]].pos = int32(i)
		i = best
	}
	e.heap[i] = slot
	e.records[slot].pos = int32(i)
}
