package metrics

// TraceEvent is one arbitration decision: at Time, the output port
// Port scheduled a packet of lane VL from table entry Entry, leaving
// WeightLeft bytes of that entry's allowance.  High distinguishes the
// two tables; entries of the low-priority table are counted from 0 in
// their own table.
//
// Port is an opaque encoding chosen by the model recording the event;
// the fabric package uses negative values for host interfaces
// (-(host+1)) and switch*ports+port for switch outputs.
type TraceEvent struct {
	Time       int64 `json:"time"`
	Port       int32 `json:"port"`
	VL         uint8 `json:"vl"`
	High       bool  `json:"high"`
	Entry      int16 `json:"entry"`
	WeightLeft int32 `json:"weightLeft"`
}

// TraceBuffer is a fixed-capacity ring of the most recent trace
// events.  Recording never allocates after construction and never
// blocks; old events are overwritten.  Like the counters, a buffer
// belongs to one engine goroutine.
type TraceBuffer struct {
	buf  []TraceEvent
	next uint64 // total events ever recorded
}

// NewTraceBuffer returns a ring holding the last n events (n < 1 is
// treated as 1).
func NewTraceBuffer(n int) *TraceBuffer {
	if n < 1 {
		n = 1
	}
	return &TraceBuffer{buf: make([]TraceEvent, n)}
}

// Record appends one event, overwriting the oldest when full.  No-op
// on a nil buffer.
func (t *TraceBuffer) Record(ev TraceEvent) {
	if t == nil {
		return
	}
	t.buf[t.next%uint64(len(t.buf))] = ev
	t.next++
}

// held returns the number of events currently held.
func (t *TraceBuffer) held() int {
	if t == nil {
		return 0
	}
	if t.next < uint64(len(t.buf)) {
		return int(t.next)
	}
	return len(t.buf)
}

// Recorded returns the total number of events ever recorded,
// including overwritten ones.
func (t *TraceBuffer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.next
}

// Dropped returns how many events were overwritten.
func (t *TraceBuffer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	if t.next < uint64(len(t.buf)) {
		return 0
	}
	return t.next - uint64(len(t.buf))
}

// Events copies out the held events, oldest first.
func (t *TraceBuffer) Events() []TraceEvent {
	n := t.held()
	if n == 0 {
		return nil
	}
	out := make([]TraceEvent, 0, n)
	start := t.next - uint64(n)
	for i := uint64(0); i < uint64(n); i++ {
		out = append(out, t.buf[(start+i)%uint64(len(t.buf))])
	}
	return out
}
