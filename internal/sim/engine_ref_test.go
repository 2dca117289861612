package sim

import (
	"math"

	"repro/internal/metrics"
)

// refEngine is the heap-only event queue the timing wheel replaced:
// every event, near or far, on one 4-ary indexed heap ordered by
// (at, seq).  It is the reference TestEngineWheelDifferential and
// FuzzEngineTrace compare Engine against, call for call.  It shares the
// package's API types with Engine (Event, Handler, Timer, deferredWork,
// funcHandler) and none of its code; its records carry the sequence
// number the heap orders by.
type refEngine struct {
	now    int64
	nextID uint64
	count  uint64

	records []refRecord
	heap    []int32
	free    int32

	deferred []deferredWork

	PoolDisabled bool

	scheduled   uint64
	canceled    uint64
	poolReuse   uint64
	poolGrow    uint64
	maxHeap     int
	maxDeferred int
}

// refRecord is one heap-queued event: pos is its heap index, or the
// free-list link of a released slot.
type refRecord struct {
	at  int64
	seq uint64 // tie-break: FIFO among simultaneous events
	gen uint32
	pos int32
	h   Handler
	ev  Event
}

func (e *refEngine) Now() int64       { return e.now }
func (e *refEngine) Executed() uint64 { return e.count }
func (e *refEngine) Pending() int     { return len(e.heap) }

func (e *refEngine) NextTime() int64 {
	if len(e.deferred) > 0 {
		return e.now
	}
	if len(e.heap) == 0 {
		return math.MaxInt64
	}
	return e.records[e.heap[0]].at
}

func (e *refEngine) Grow(n int) {
	if cap(e.records) < n {
		r := make([]refRecord, len(e.records), n)
		copy(r, e.records)
		e.records = r
	}
	if cap(e.heap) < n {
		h := make([]int32, len(e.heap), n)
		copy(h, e.heap)
		e.heap = h
	}
}

func (e *refEngine) Stats() metrics.EngineCounters {
	return metrics.EngineCounters{
		Scheduled:    int64(e.scheduled),
		Executed:     int64(e.count),
		Canceled:     int64(e.canceled),
		MaxHeapDepth: int64(e.maxHeap),
		MaxDeferred:  int64(e.maxDeferred),
		PoolReuse:    int64(e.poolReuse),
		PoolGrow:     int64(e.poolGrow),
	}
}

func (e *refEngine) At(t int64, fn func())    { e.schedule(t, funcHandler{}, Event{P: fn}) }
func (e *refEngine) After(d int64, fn func()) { e.At(e.now+d, fn) }

func (e *refEngine) Post(t int64, h Handler, ev Event)      { e.schedule(t, h, ev) }
func (e *refEngine) PostAfter(d int64, h Handler, ev Event) { e.schedule(e.now+d, h, ev) }

func (e *refEngine) PostTimerAfter(d int64, h Handler, ev Event) Timer {
	return e.schedule(e.now+d, h, ev)
}

func (e *refEngine) Cancel(t Timer) bool {
	if t.slot == 0 {
		return false
	}
	slot := t.slot - 1
	if int(slot) >= len(e.records) {
		return false
	}
	r := &e.records[slot]
	if r.gen != t.gen {
		return false
	}
	e.removeAt(int(r.pos))
	e.release(slot)
	e.canceled++
	return true
}

func (e *refEngine) deferFunc(fn func()) { e.DeferEvent(funcHandler{}, Event{P: fn}) }

func (e *refEngine) DeferEvent(h Handler, ev Event) {
	e.deferred = append(e.deferred, deferredWork{h: h, ev: ev})
	if len(e.deferred) > e.maxDeferred {
		e.maxDeferred = len(e.deferred)
	}
}

func (e *refEngine) schedule(t int64, h Handler, ev Event) Timer {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	slot := e.alloc()
	r := &e.records[slot]
	r.at, r.seq = t, e.nextID
	r.h, r.ev = h, ev
	e.nextID++
	e.scheduled++
	e.push(slot)
	return Timer{slot: slot + 1, gen: r.gen}
}

func (e *refEngine) alloc() int32 {
	if e.free != 0 && !e.PoolDisabled {
		slot := e.free - 1
		e.free = e.records[slot].pos
		e.poolReuse++
		return slot
	}
	e.records = append(e.records, refRecord{})
	e.poolGrow++
	return int32(len(e.records) - 1)
}

func (e *refEngine) release(slot int32) {
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

func (e *refEngine) drainDeferred() {
	for i := 0; i < len(e.deferred); i++ {
		d := e.deferred[i]
		e.deferred[i] = deferredWork{}
		e.count++
		d.h.HandleEvent(d.ev)
	}
	e.deferred = e.deferred[:0]
}

func (e *refEngine) Step() bool {
	if len(e.deferred) > 0 {
		e.drainDeferred()
		return true
	}
	if len(e.heap) == 0 {
		return false
	}
	slot := e.popMin()
	r := &e.records[slot]
	e.now = r.at
	h, ev := r.h, r.ev
	e.release(slot)
	e.count++
	h.HandleEvent(ev)
	e.drainDeferred()
	return true
}

func (e *refEngine) Run(until int64) {
	e.drainDeferred()
	for len(e.heap) > 0 && e.records[e.heap[0]].at <= until {
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
}

func (e *refEngine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

func (e *refEngine) less(a, b int32) bool {
	ra, rb := &e.records[a], &e.records[b]
	if ra.at != rb.at {
		return ra.at < rb.at
	}
	return ra.seq < rb.seq
}

func (e *refEngine) push(slot int32) {
	e.heap = append(e.heap, slot)
	e.records[slot].pos = int32(len(e.heap) - 1)
	e.siftUp(len(e.heap) - 1)
	if len(e.heap) > e.maxHeap {
		e.maxHeap = len(e.heap)
	}
}

func (e *refEngine) popMin() int32 {
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

func (e *refEngine) removeAt(i int) {
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

func (e *refEngine) siftUp(i int) {
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

func (e *refEngine) siftDown(i int) {
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
