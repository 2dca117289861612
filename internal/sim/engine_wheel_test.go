package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/metrics"
)

// scriptEngine is the surface a byte script drives: everything Engine
// exports, plus the PoolDisabled knob as a method so refEngine can
// stand in.
type scriptEngine interface {
	Now() int64
	Executed() uint64
	NextTime() int64
	Pending() int
	Stats() metrics.EngineCounters
	Grow(n int)
	At(t int64, fn func())
	After(d int64, fn func())
	Post(t int64, h Handler, ev Event)
	PostAfter(d int64, h Handler, ev Event)
	PostTimer(t int64, h Handler, ev Event) Timer
	PostTimerAfter(d int64, h Handler, ev Event) Timer
	Cancel(t Timer) bool
	Defer(fn func())
	DeferEvent(h Handler, ev Event)
	Step() bool
	Run(until int64)
	RunWhile(cond func() bool)
	setPoolDisabled(on bool)
}

func (e *Engine) setPoolDisabled(on bool)    { e.PoolDisabled = on }
func (e *refEngine) setPoolDisabled(on bool) { e.PoolDisabled = on }

// Event kinds of the script's handler: what an event does when it
// fires, besides being logged.
const (
	kLeaf        Kind = iota // nothing
	kSameInstant             // Post(now): lands in the bucket being drained
	kDeferEvent              // DeferEvent
	kDeferFunc               // Defer of a closure
	kChain                   // PostAfter(N) of itself, B more times
	kCancel                  // Cancel of timer B
	kTimer                   // PostTimerAfter(N) into timer B
	kFar                     // Post beyond the wheel's window
	numKinds
	kClosure Kind = -1 // log tag of closure events
)

// A script call's opcode is its first byte mod numOps.  opExec tags the
// trace row of an executed event, opDrain the state after the final
// drain; every other row is the engine's state after the call with
// that opcode.
const (
	numOps  = 20
	opExec  = -1
	opDrain = numOps
)

// traceRow is one line of a script's trace.
type traceRow struct {
	op      int
	ok      bool // result of Cancel / Step
	now     int64
	kind    Kind
	a       int32
	next    int64
	pending int
	exec    uint64
	stats   metrics.EngineCounters
}

// The situations a script can reach, counted so the differential test
// can assert its scripts are not vacuous.
const (
	covFarExecuted  = iota // events posted at or beyond the window that fired (so migrated)
	covWrapped             // near events whose bucket index lies below Now's
	covCancelNear          // timers canceled in the wheel
	covCancelFar           // timers canceled in the overflow heap
	covCancelStale         // Cancel of a fired, canceled or recycled handle
	covPoolDisabled        // PoolDisabled set mid-script
	covSameInstant         // handler posts at Now, into the bucket being drained
	covOverflow            // calls made with a non-empty overflow heap
	covSparse              // calls after which the next bucket is found through the summary
	numCover
)

var coverNames = [numCover]string{
	"far events migrated and executed",
	"near events wrapped around the ring",
	"near timers canceled",
	"far timers canceled",
	"stale handles canceled",
	"PoolDisabled set mid-script",
	"same-instant posts from a handler",
	"calls made with a non-empty overflow heap",
	"next-bucket searches over the summary",
}

type scriptCover [numCover]int

const farFlag = 1 << 8 // in Event.B: posted at or beyond the window

type scriptRun struct {
	eng      scriptEngine
	in       []byte
	log      []traceRow
	timers   [8]Timer
	timerAt  [8]int64
	nextA    int32
	cover    scriptCover
	afterOp  func(*scriptRun) // white-box hook, nil for the reference
	hookFail error
}

func (s *scriptRun) HandleEvent(ev Event) {
	e := s.eng
	s.log = append(s.log, traceRow{op: opExec, now: e.Now(), kind: ev.Kind, a: ev.A})
	if ev.B&farFlag != 0 {
		s.cover[covFarExecuted]++
	}
	b := int(ev.B & 7)
	switch ev.Kind {
	case kSameInstant:
		s.cover[covSameInstant]++
		s.post(e.Now(), Event{Kind: kLeaf})
	case kDeferEvent:
		e.DeferEvent(s, s.event(Event{Kind: kLeaf}, 0))
	case kDeferFunc:
		e.Defer(s.closure())
	case kChain:
		if b > 0 {
			s.post(e.Now()+ev.N, Event{Kind: kChain, B: int32(b - 1), N: ev.N})
		}
	case kCancel:
		s.cancel(b)
	case kTimer:
		s.timers[b] = e.PostTimerAfter(ev.N, s, s.event(Event{Kind: kLeaf}, ev.N))
		s.timerAt[b] = e.Now() + ev.N
	case kFar:
		s.post(e.Now()+wheelSize+ev.N, Event{Kind: kLeaf})
	}
}

// event stamps ev with the next id and, given its delay, the far flag
// and the wrap-around count.
func (s *scriptRun) event(ev Event, delay int64) Event {
	ev.A = s.nextA
	s.nextA++
	if delay >= wheelSize {
		ev.B |= farFlag
	} else if (s.eng.Now()+delay)&wheelMask < s.eng.Now()&wheelMask {
		s.cover[covWrapped]++
	}
	return ev
}

func (s *scriptRun) post(t int64, ev Event) {
	s.eng.Post(t, s, s.event(ev, t-s.eng.Now()))
}

func (s *scriptRun) closure() func() {
	a := s.nextA
	s.nextA++
	return func() {
		s.log = append(s.log, traceRow{op: opExec, now: s.eng.Now(), kind: kClosure, a: a})
	}
}

func (s *scriptRun) cancel(i int) bool {
	far := s.timerAt[i]-s.eng.Now() >= wheelSize
	ok := s.eng.Cancel(s.timers[i])
	switch {
	case !ok:
		s.cover[covCancelStale]++
	case far:
		s.cover[covCancelFar]++
	default:
		s.cover[covCancelNear]++
	}
	return ok
}

func (s *scriptRun) next() byte {
	if len(s.in) == 0 {
		return 0
	}
	b := s.in[0]
	s.in = s.in[1:]
	return b
}

// delayOf decodes one of the delay classes the wheel distinguishes.
func delayOf(x, y byte) int64 {
	switch x % 12 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return int64(y % 64)
	case 3:
		return (int64(x)<<8 | int64(y)) % wheelSize
	case 4:
		return wheelSize - 1
	case 5:
		return wheelSize
	case 6:
		return wheelSize + 1 + int64(y)
	case 7:
		return 3*wheelSize + int64(y)<<4
	case 8:
		return wheelSize*(int64(y)+2) + int64(y)
	case 9:
		return 700 + int64(y)
	case 10:
		return wheelSize - 1 - int64(y%8)
	default:
		return 64 * int64(y) // whole bitmap words ahead: the summary level finds it
	}
}

// state appends the engine's observable state after a script call.
func (s *scriptRun) state(op int, ok bool) {
	e := s.eng
	s.log = append(s.log, traceRow{op: op, ok: ok, now: e.Now(), next: e.NextTime(),
		pending: e.Pending(), exec: e.Executed(), stats: e.Stats()})
	if s.afterOp != nil && s.hookFail == nil {
		s.afterOp(s)
	}
}

// run interprets the script: four bytes per call.
func (s *scriptRun) run() {
	e := s.eng
	for len(s.in) > 0 {
		op, k, x, y := int(s.next()%numOps), s.next(), s.next(), s.next()
		d := delayOf(x, y)
		ok := false
		switch op {
		case 0, 1, 2, 3:
			s.post(e.Now()+d, Event{Kind: Kind(k) % numKinds, B: int32(k >> 5), N: int64(1 + y%97)})
		case 4:
			e.At(e.Now()+d, s.closure())
		case 5:
			e.After(d, s.closure())
		case 6:
			e.PostAfter(d, s, s.event(Event{Kind: Kind(k) % numKinds, B: int32(k >> 5), N: int64(y)}, d))
		case 7:
			i := int(k & 7)
			s.timers[i] = e.PostTimer(e.Now()+d, s, s.event(Event{Kind: kLeaf}, d))
			s.timerAt[i] = e.Now() + d
		case 8:
			ok = s.cancel(int(k & 7))
		case 9, 10:
			ok = e.Step()
		case 11:
			e.Run(e.Now() + d)
		case 12:
			// Around the earliest pending event: just short of it,
			// exactly at it, a window past it.
			if nt := e.NextTime(); nt != math.MaxInt64 {
				e.Run(nt + [...]int64{-1, 0, 0, wheelSize - 1, wheelSize}[k%5])
			}
		case 13:
			// The horizon probe: a far event, a Run that stops short of
			// it — before, exactly when, and after the window comes to
			// cover it — then a direct insert at the same timestamp,
			// which must stay behind the far event.
			t := e.Now() + wheelSize + int64(k%4)
			s.post(t, Event{Kind: kLeaf})
			s.state(op, false)
			e.Run(e.Now() + int64(k%4) + int64(x%3))
			s.state(op, false)
			s.post(t, Event{Kind: kLeaf})
		case 14:
			stop := e.Executed() + uint64(k%8)
			e.RunWhile(func() bool { return e.Executed() < stop })
		case 15:
			if k&1 == 0 {
				e.Defer(s.closure())
			} else {
				e.DeferEvent(s, s.event(Event{Kind: Kind(x) % numKinds, N: int64(1 + y)}, 0))
			}
		case 16:
			if k%4 != 0 { // pool toggles are rarer than the other calls
				ok = e.Step()
				break
			}
			e.setPoolDisabled(x&1 != 0)
			if x&1 != 0 {
				s.cover[covPoolDisabled]++
			}
		case 17:
			e.Grow(int(k))
		case 18:
			// A burst at one timestamp, partly canceled: FIFO within a
			// bucket across a Cancel of its head, middle or tail.
			for j := 0; j < 4; j++ {
				s.timers[j] = e.PostTimer(e.Now()+d, s, s.event(Event{Kind: kLeaf}, d))
				s.timerAt[j] = e.Now() + d
			}
			ok = s.cancel(int(k % 4))
		case 19:
			e.Run(e.Now() + 100*wheelSize)
		}
		s.state(op, ok)
	}
	e.Run(math.MaxInt64 / 2)
	s.state(opDrain, false)
}

// checkQueue re-derives every redundant part of the wheel and the
// overflow heap from the records: occupancy and summary bits, back
// links, tails, the count, (at, seq) order within a bucket, the
// window/overflow split and the heap order.
func (e *Engine) checkQueue() error {
	n := 0
	if w := e.wheel; w != nil {
		for i := range w.buckets {
			b := w.buckets[i]
			if occ := w.occ[i>>6]>>(uint(i)&63)&1 != 0; occ != (b.head != 0) || (b.head == 0) != (b.tail == 0) {
				return fmt.Errorf("bucket %d: occupancy bit %v, head %d, tail %d", i, occ, b.head, b.tail)
			}
			prev, lastSeq := int32(0), uint64(0)
			for s := b.head; s != 0; s = e.records[s-1].pos {
				r := &e.records[s-1]
				if n++; n > len(e.records) {
					return fmt.Errorf("bucket %d: cycle", i)
				}
				if r.prev != prev {
					return fmt.Errorf("bucket %d slot %d: prev %d, want %d", i, s-1, r.prev, prev)
				}
				if r.at < e.now || r.at-e.now >= wheelSize || int(r.at&wheelMask) != i {
					return fmt.Errorf("bucket %d slot %d: at %d outside the window at now %d", i, s-1, r.at, e.now)
				}
				if r.h == nil {
					return fmt.Errorf("bucket %d slot %d: released record queued", i, s-1)
				}
				if prev != 0 && (r.seq <= lastSeq || r.at != e.records[prev-1].at) {
					return fmt.Errorf("bucket %d slot %d: (at, seq) order broken", i, s-1)
				}
				prev, lastSeq = s, r.seq
			}
			if prev != b.tail {
				return fmt.Errorf("bucket %d: tail %d, last %d", i, b.tail, prev)
			}
		}
		for wi := range w.occ {
			if (w.occ[wi] != 0) != (w.sum[wi>>6]>>(uint(wi)&63)&1 != 0) {
				return fmt.Errorf("summary bit of word %d disagrees with %#x", wi, w.occ[wi])
			}
		}
	}
	if n != e.wheelN {
		return fmt.Errorf("wheel holds %d events, wheelN %d", n, e.wheelN)
	}
	for i, slot := range e.heap {
		r := &e.records[slot]
		if int(r.pos) != i {
			return fmt.Errorf("heap[%d] slot %d: pos %d", i, slot, r.pos)
		}
		if r.at-e.now < wheelSize {
			return fmt.Errorf("heap[%d] slot %d: at %d inside the window at now %d", i, slot, r.at, e.now)
		}
		if i > 0 && e.less(slot, e.heap[(i-1)>>2]) {
			return fmt.Errorf("heap[%d] earlier than its parent", i)
		}
	}
	return nil
}

// observeWheel is the white-box hook for the engine under test.
func observeWheel(s *scriptRun) {
	e := s.eng.(*Engine)
	if err := e.checkQueue(); err != nil {
		s.hookFail = fmt.Errorf("after call %d: %v", len(s.log), err)
		return
	}
	if len(e.heap) > 0 {
		s.cover[covOverflow]++
	}
	if p := uint(e.now) & wheelMask; e.wheelN > 0 && e.wheel.occ[p>>6]>>(p&63) == 0 {
		s.cover[covSparse]++
	}
}

// compareScript drives Engine and refEngine with one script and
// returns the first difference between their traces, and what the
// script covered.
func compareScript(script []byte) (scriptCover, error) {
	ref := &scriptRun{eng: &refEngine{}, in: script}
	ref.run()
	got := &scriptRun{eng: &Engine{}, in: script, afterOp: observeWheel}
	got.run()
	if got.hookFail != nil {
		return got.cover, got.hookFail
	}
	for i := range ref.log {
		if i >= len(got.log) || got.log[i] != ref.log[i] {
			var g any = "nothing"
			if i < len(got.log) {
				g = got.log[i]
			}
			return got.cover, fmt.Errorf("trace row %d:\n  wheel %+v\n  heap  %+v", i, g, ref.log[i])
		}
	}
	if len(got.log) != len(ref.log) {
		return got.cover, fmt.Errorf("wheel trace has %d rows, heap trace %d", len(got.log), len(ref.log))
	}
	return got.cover, nil
}

// TestEngineWheelDifferential drives the timing-wheel Engine and the
// heap-only refEngine with one random script per seed and requires the
// identical executed sequence (now, kind, A) and the identical Now,
// NextTime, Pending, Executed and Stats after every call, with the
// wheel's structure audited after every call too.
func TestEngineWheelDifferential(t *testing.T) {
	var total scriptCover
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 4*400)
		rng.Read(script)
		c, err := compareScript(script)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, n := range c {
			total[i] += n
		}
	}
	for i, n := range total {
		if n == 0 {
			t.Errorf("the scripts never reached: %s", coverNames[i])
		}
	}
	t.Logf("coverage: %v", total)
}

// FuzzEngineTrace runs the same comparison from a fuzzer-chosen byte
// script.
func FuzzEngineTrace(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{13, 0, 0, 0, 13, 1, 1, 0, 13, 2, 2, 0, 13, 3, 0, 0, 19, 0, 0, 0})
	f.Add([]byte{0, 4, 5, 0, 7, 1, 7, 9, 12, 3, 0, 0, 8, 1, 0, 0, 16, 0, 1, 0, 7, 1, 9, 3, 8, 1, 0, 0})
	rng := rand.New(rand.NewSource(1))
	seed := make([]byte, 4*64)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4*512 {
			script = script[:4*512]
		}
		if _, err := compareScript(script); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRecordSize pins the slab's footprint: routing closures through
// the typed path paid for the wheel's back link.
func TestRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(record{}); n > 88 {
		t.Errorf("record is %d bytes, want <= 88", n)
	}
	if n := unsafe.Sizeof(deferredWork{}); n > 56 {
		t.Errorf("deferredWork is %d bytes, want <= 56", n)
	}
}
