package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/metrics"
)

// scriptEngine is the surface a byte script drives: Engine's
// scheduling and inspection methods, plus closure deferral and the
// PoolDisabled knob as methods so refEngine can stand in.
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
	PostTimerAfter(d int64, h Handler, ev Event) Timer
	Cancel(t Timer) bool
	deferFunc(fn func())
	DeferEvent(h Handler, ev Event)
	Step() bool
	Run(until int64)
	RunWhile(cond func() bool)
	setPoolDisabled(on bool)
}

func (e *Engine) setPoolDisabled(on bool)    { e.PoolDisabled = on }
func (e *Engine) deferFunc(fn func())        { e.DeferEvent(funcHandler{}, Event{P: fn}) }
func (e *refEngine) setPoolDisabled(on bool) { e.PoolDisabled = on }

// Event kinds of the script's handler: what an event does when it
// fires, besides being logged.
const (
	kLeaf        Kind = iota // nothing
	kSameInstant             // Post(now): lands in the bucket being drained
	kDeferEvent              // DeferEvent
	kDeferFunc               // deferFunc of a closure
	kChain                   // PostAfter(N) of itself, B more times
	kCancel                  // Cancel of timer B
	kTimer                   // PostTimerAfter(N) into timer B
	kFar                     // Post 2^(12 + N mod 50) + N ahead: into a coarse level
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
// can assert its scripts are not vacuous.  covCascade+k-1 counts the
// events cascaded out of coarse level k, for every k.
const (
	covCoarseExecuted = iota // events posted into a coarse level that fired (so cascaded)
	covWrapped               // level-0 events whose bucket index lies below Now's
	covCancelNear            // timers canceled in level 0
	covCancelCoarse          // timers canceled in a coarse level
	covCancelStale           // Cancel of a fired, canceled or recycled handle
	covPoolDisabled          // PoolDisabled set mid-script
	covSameInstant           // handler posts at Now, into the bucket being drained
	covCoarse                // calls made with events in a coarse level
	covCoarseOnly            // calls after which only coarse levels hold events
	covSparse                // calls after which the next bucket is found through the summary
	covJumpEmpty             // calls that cascaded a level above empty coarse levels
	covCascade
	numCover = covCascade + numCoarse
)

var coverNames = [covCascade]string{
	"coarse events cascaded and executed",
	"level-0 events wrapped around the ring",
	"level-0 timers canceled",
	"coarse timers canceled",
	"stale handles canceled",
	"PoolDisabled set mid-script",
	"same-instant posts from a handler",
	"calls made with events in a coarse level",
	"calls after which only coarse levels hold events (NextTime and Step scan a coarse bucket)",
	"next-bucket searches over the summary",
	"clock jumps that cascade a level above empty coarse levels",
}

func coverName(i int) string {
	if i < covCascade {
		return coverNames[i]
	}
	return fmt.Sprintf("cascades out of level %d", i-covCascade+1)
}

type scriptCover [numCover]int

const farFlag = 1 << 8 // in Event.B: posted into a coarse level

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
	seen     metrics.EngineCounters // the hook's previous Stats
	empty    int                    // the hook's previous count of empty coarse levels from level 1 up
}

// sat adds d to t, saturating at math.MaxInt64 (d may be negative).
func sat(t, d int64) int64 {
	if d > math.MaxInt64-t {
		return math.MaxInt64
	}
	return t + d
}

func (s *scriptRun) HandleEvent(ev Event) {
	e := s.eng
	s.log = append(s.log, traceRow{op: opExec, now: e.Now(), kind: ev.Kind, a: ev.A})
	if ev.B&farFlag != 0 {
		s.cover[covCoarseExecuted]++
	}
	b := int(ev.B & 7)
	switch ev.Kind {
	case kSameInstant:
		s.cover[covSameInstant]++
		s.post(e.Now(), Event{Kind: kLeaf})
	case kDeferEvent:
		e.DeferEvent(s, s.event(Event{Kind: kLeaf}, 0))
	case kDeferFunc:
		e.deferFunc(s.closure())
	case kChain:
		if b > 0 {
			s.post(sat(e.Now(), ev.N), Event{Kind: kChain, B: int32(b - 1), N: ev.N})
		}
	case kCancel:
		s.cancel(b)
	case kTimer:
		d := min(ev.N, math.MaxInt64-e.Now())
		s.timers[b] = e.PostTimerAfter(d, s, s.event(Event{Kind: kLeaf}, d))
		s.timerAt[b] = e.Now() + d
	case kFar:
		s.post(sat(e.Now(), 1<<(wheelBits+ev.N%50)+ev.N), Event{Kind: kLeaf})
	}
}

// event stamps ev with the next id and, given its delay, the far flag
// and the wrap-around count.
func (s *scriptRun) event(ev Event, delay int64) Event {
	ev.A = s.nextA
	s.nextA++
	now := s.eng.Now()
	if levelOf(now+delay, now) > 0 {
		ev.B |= farFlag
	} else if (now+delay)&wheelMask < now&wheelMask {
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
	coarse := s.timerAt[i] >= s.eng.Now() && levelOf(s.timerAt[i], s.eng.Now()) > 0
	ok := s.eng.Cancel(s.timers[i])
	switch {
	case !ok:
		s.cover[covCancelStale]++
	case coarse:
		s.cover[covCancelCoarse]++
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

// delayOf decodes one of the delay classes the wheel distinguishes,
// at clock now: level 0's, around the ends of every level's range, and
// up to the end of time.  The delay never takes now past math.MaxInt64.
func delayOf(now int64, x, y byte) int64 {
	var d int64
	switch x % 16 {
	case 0:
		d = 0
	case 1:
		d = 1
	case 2:
		d = int64(y % 64)
	case 3:
		d = (int64(x)<<8 | int64(y)) % wheelSize
	case 4:
		d = wheelSize - 1
	case 5:
		d = wheelSize
	case 6:
		d = wheelSize + 1 + int64(y)
	case 7:
		d = 3*wheelSize + int64(y)<<4
	case 8:
		d = wheelSize*(int64(y)+2) + int64(y)
	case 9:
		d = 700 + int64(y)
	case 10:
		d = wheelSize - 1 - int64(y%8)
	case 11:
		d = 64 * int64(y) // whole bitmap words ahead: the summary level finds it
	case 12, 13:
		// One before, at and one after the first time of level k+1,
		// the end of level k's range.
		k := int(y) % numCoarse
		sh := shift(k + 1)
		end := now>>sh + reach(k)
		if end > math.MaxInt64>>sh {
			return math.MaxInt64 - now
		}
		d = end<<sh - now + int64(x>>4%3) - 1
	case 14:
		d = 1<<(y%63) - 1 + int64(x>>4&1) // 2^n − 1 and 2^n, n < 63
	default:
		if y < 64 {
			return math.MaxInt64 - now - min(int64(y%4), math.MaxInt64-now)
		}
		d = 1 << (40 + y%22)
	}
	return min(d, math.MaxInt64-now)
}

// state appends the engine's observable state after a script call.
// The level counters are Engine's alone, so the trace leaves them out.
func (s *scriptRun) state(op int, ok bool) {
	e := s.eng
	st := e.Stats()
	st.Placed, st.Cascaded = [numLevels]int64{}, [numLevels]int64{}
	s.log = append(s.log, traceRow{op: op, ok: ok, now: e.Now(), next: e.NextTime(),
		pending: e.Pending(), exec: e.Executed(), stats: st})
	if s.afterOp != nil && s.hookFail == nil {
		s.afterOp(s)
	}
}

// run interprets the script: four bytes per call.
func (s *scriptRun) run() {
	e := s.eng
	for len(s.in) > 0 {
		op, k, x, y := int(s.next()%numOps), s.next(), s.next(), s.next()
		d := delayOf(e.Now(), x, y)
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
			s.timers[i] = e.PostTimerAfter(d, s, s.event(Event{Kind: kLeaf}, d))
			s.timerAt[i] = e.Now() + d
		case 8:
			ok = s.cancel(int(k & 7))
		case 9, 10:
			ok = e.Step()
		case 11:
			e.Run(e.Now() + d)
		case 12:
			// Around the earliest pending event: just short of it,
			// exactly at it, a ring's width past it.
			if nt := e.NextTime(); nt != math.MaxInt64 {
				e.Run(sat(nt, [...]int64{-1, 0, 0, wheelSize - 1, wheelSize}[k%5]))
			}
		case 13:
			// The horizon probe: an event at the start of level j+1's
			// range, a Run that stops just before, exactly when and just
			// after level j comes to reach it (its bucket cascades), then
			// a direct insert at the same timestamp, which must stay
			// behind the first.
			j := int(x) % 4
			sh := shift(j + 1)
			if e.Now()>>sh+reach(j) > math.MaxInt64>>sh {
				break
			}
			t := (e.Now()>>sh+reach(j))<<sh + int64(k%4)
			s.post(t, Event{Kind: kLeaf})
			s.state(op, false)
			e.Run((e.Now()>>sh+1)<<sh - 1 + int64(y%3))
			s.state(op, false)
			s.post(t, Event{Kind: kLeaf})
		case 14:
			stop := e.Executed() + uint64(k%8)
			e.RunWhile(func() bool { return e.Executed() < stop })
		case 15:
			if k&1 == 0 {
				e.deferFunc(s.closure())
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
				s.timers[j] = e.PostTimerAfter(d, s, s.event(Event{Kind: kLeaf}, d))
				s.timerAt[j] = e.Now() + d
			}
			ok = s.cancel(int(k % 4))
		case 19:
			e.Run(sat(e.Now(), 100*wheelSize))
		}
		s.state(op, ok)
	}
	e.Run(math.MaxInt64)
	s.state(opDrain, false)
}

// checkQueue re-derives every redundant part of every level from the
// records: occupancy and summary bits, back links, tails, the count,
// and that each event sits in the bucket of its time in the level
// levelOf names.  The scripts number their typed events in posting
// order (Event.A), so it also checks that the events of one timestamp
// are in posting order.
func (e *Engine) checkQueue() error {
	n := 0
	lastA := map[int64]int32{}
	walk := func(b bucket, level, index int) error {
		name := func() string {
			if level == 0 {
				return fmt.Sprintf("bucket %d", index)
			}
			return fmt.Sprintf("level %d bucket %d", level, index)
		}
		if b.head == 0 {
			if b.tail != 0 {
				return fmt.Errorf("%s: no head, tail %d", name(), b.tail)
			}
			return nil
		}
		clear(lastA)
		prev := int32(0)
		for s := b.head; s != 0; s = e.records[s-1].pos {
			r := &e.records[s-1]
			if n++; n > len(e.records) {
				return fmt.Errorf("%s: cycle", name())
			}
			if r.prev != prev {
				return fmt.Errorf("%s slot %d: prev %d, want %d", name(), s-1, r.prev, prev)
			}
			if r.at < e.now || levelOf(r.at, e.now) != level {
				return fmt.Errorf("%s slot %d: at %d belongs elsewhere at now %d", name(), s-1, r.at, e.now)
			}
			if (level == 0 && int(r.at&wheelMask) != index) || (level > 0 && int(r.at>>shift(level)%levelSize) != index) {
				return fmt.Errorf("%s slot %d: at %d in the wrong bucket", name(), s-1, r.at)
			}
			if r.h == nil {
				return fmt.Errorf("%s slot %d: released record queued", name(), s-1)
			}
			if _, closure := r.h.(funcHandler); !closure {
				if a, ok := lastA[r.at]; ok && r.ev.A <= a {
					return fmt.Errorf("%s slot %d: events at %d out of posting order", name(), s-1, r.at)
				}
				lastA[r.at] = r.ev.A
			}
			prev = s
		}
		if prev != b.tail {
			return fmt.Errorf("%s: tail %d, last %d", name(), b.tail, prev)
		}
		return nil
	}
	if w := e.wheel; w != nil {
		for i, b := range w.buckets {
			if occ := w.occ[i>>6]>>(uint(i)&63)&1 != 0; occ != (b.head != 0) {
				return fmt.Errorf("bucket %d: occupancy bit %v, head %d", i, occ, b.head)
			}
			if err := walk(b, 0, i); err != nil {
				return err
			}
		}
		for wi := range w.occ {
			if (w.occ[wi] != 0) != (w.sum[wi>>6]>>(uint(wi)&63)&1 != 0) {
				return fmt.Errorf("summary bit of word %d disagrees with %#x", wi, w.occ[wi])
			}
		}
	}
	for j := range e.coarse {
		lv := &e.coarse[j]
		for i, b := range lv.buckets {
			if occ := lv.occ>>uint(i)&1 != 0; occ != (b.head != 0) {
				return fmt.Errorf("level %d bucket %d: occupancy bit %v, head %d", j+1, i, occ, b.head)
			}
			if err := walk(b, j+1, i); err != nil {
				return err
			}
		}
	}
	if n != e.pending {
		return fmt.Errorf("the levels hold %d events, pending %d", n, e.pending)
	}
	placed := int64(0)
	for _, p := range e.placed {
		placed += p
	}
	if placed != int64(e.scheduled) {
		return fmt.Errorf("%d events placed, %d scheduled", placed, e.scheduled)
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
	empty := 0
	for empty < numCoarse && e.coarse[empty].occ == 0 {
		empty++
	}
	if empty < numCoarse {
		s.cover[covCoarse]++
		if e.wheel == nil || e.wheel.empty() {
			s.cover[covCoarseOnly]++
		}
	}
	if p := uint(e.now) & wheelMask; e.wheel != nil && !e.wheel.empty() && e.wheel.occ[p>>6]>>(p&63) == 0 {
		s.cover[covSparse]++
	}
	st := e.Stats()
	for k := 1; k <= numCoarse; k++ {
		if c := st.Cascaded[k] - s.seen.Cascaded[k]; c > 0 {
			s.cover[covCascade+k-1] += int(c)
			if k >= 2 && s.empty >= k-1 {
				s.cover[covJumpEmpty]++
			}
		}
	}
	s.seen, s.empty = st, empty
}

// compareScript drives Engine and refEngine with one script and
// returns the first difference between their traces, and what the
// script covered.
func compareScript(script []byte) (scriptCover, error) {
	ref := &scriptRun{eng: &refEngine{}, in: script}
	ref.run()
	got := &scriptRun{eng: &Engine{}, in: script, afterOp: observeWheel, empty: numCoarse}
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
// NextTime, Pending, Executed and Stats after every call, with every
// level's structure audited after every call too.
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
			t.Errorf("the scripts never reached: %s", coverName(i))
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
	// The horizon probe at every level boundary it reaches: just
	// before, at and just after the cascade.
	f.Add([]byte{13, 0, 0, 0, 13, 1, 1, 1, 13, 2, 2, 2, 13, 3, 3, 0, 13, 0, 4, 1, 13, 1, 5, 2, 13, 2, 6, 0, 13, 3, 7, 1})
	// Timers at the ends of the coarse levels' ranges (delay classes 12
	// and 13 pick the level from y), each canceled, then one armed again
	// and reached by a Run that jumps across the empty levels below it.
	f.Add([]byte{
		7, 0, 12, 1, 7, 1, 28, 2, 7, 2, 44, 3, 7, 3, 13, 4, 7, 4, 29, 5, 7, 5, 45, 6, 7, 6, 12, 7, 7, 7, 28, 8,
		8, 0, 0, 0, 8, 1, 0, 0, 8, 2, 0, 0, 8, 3, 0, 0, 8, 4, 0, 0, 8, 5, 0, 0, 8, 6, 0, 0, 8, 7, 0, 0,
		7, 0, 12, 9, 7, 1, 13, 10, 9, 0, 0, 0, 12, 1, 0, 0, 9, 0, 0, 0,
	})
	// Only coarse events pending: NextTime, Step and Run scan a coarse
	// bucket; then events at the end of time, drained by the final Run.
	f.Add([]byte{0, 7, 14, 30, 0, 7, 14, 50, 9, 0, 0, 0, 0, 0, 15, 3, 0, 0, 31, 1, 11, 0, 14, 62, 9, 0, 0, 0})
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

// TestLevelReach pins the level arithmetic: every level's range fits
// its ring, the ranges are contiguous and increasing, and the top level
// holds every time up to math.MaxInt64 without two spans sharing a
// bucket.
func TestLevelReach(t *testing.T) {
	for _, now := range []int64{0, 1, 1023, 1024, 4095, 1<<20 + 17, 1<<40 - 1, 1 << 59, math.MaxInt64 - 1<<61, math.MaxInt64 - 5, math.MaxInt64} {
		// start is the first time of level k; level k holds [start, end).
		start := now
		for k := 0; k <= numCoarse; k++ {
			end := int64(math.MaxInt64)
			open := k == numCoarse
			if !open {
				sh := shift(k + 1)
				if hi := now>>sh + reach(k); hi <= math.MaxInt64>>sh {
					end = hi << sh
				} else {
					open = true
				}
			}
			if end < start {
				t.Fatalf("now %d: level %d ends at %d before it starts at %d", now, k, end, start)
			}
			width := int64(1)
			if k > 0 {
				width = 1 << shift(k)
			}
			buckets := int64(wheelSize)
			if k > 0 {
				buckets = levelSize
			}
			if end > start || open {
				last := end - 1
				if open {
					last = math.MaxInt64
				}
				if span := last/width - start/width + 1; span > buckets {
					t.Fatalf("now %d: level %d spans %d buckets, ring has %d", now, k, span, buckets)
				}
				for _, tm := range []int64{start, last} {
					if got := levelOf(tm, now); got != k {
						t.Fatalf("now %d: levelOf(%d) = %d, want %d", now, tm, got, k)
					}
				}
			}
			if open {
				if end != math.MaxInt64 || levelOf(math.MaxInt64, now) != k {
					t.Fatalf("now %d: level %d is the last but does not reach math.MaxInt64", now, k)
				}
				break
			}
			start = end
		}
	}
}

// TestRecordSize pins the slab's footprint: routing closures through
// the typed path paid for the wheel's back link, and the coarse levels
// need no sequence number.
func TestRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(record{}); n > 80 {
		t.Errorf("record is %d bytes, want <= 80", n)
	}
	if n := unsafe.Sizeof(deferredWork{}); n > 56 {
		t.Errorf("deferredWork is %d bytes, want <= 56", n)
	}
}
