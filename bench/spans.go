package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the driver made into a layer.  Spans are
// recorded from the benchmark's own files only, around the exported
// calls; what happens inside Network.Run is invisible here and is
// estimated from probe costs and counts instead (see estimates).
type span struct {
	Name   string
	Start  time.Duration // since the tracer was created
	End    time.Duration
	Parent int // index of the enclosing span, -1 at the root
}

// tracer keeps spans in memory until the run ends.  A nil tracer is
// the untraced run: begin and end cost one branch.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span nested in the innermost open one and returns its
// handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes a span; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// totalsByName sums total and self time over the spans of each name.
func totalsByName(spans []span) (total, self map[string]time.Duration) {
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	for i, st := range selfTimes(spans) {
		total[spans[i].Name] += spans[i].End - spans[i].Start
		self[spans[i].Name] += st
	}
	return total, self
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open directly.
func (t *tracer) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	self := selfTimes(t.spans)
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: 1,
			Args: map[string]any{"workload": t.workload, "span": i, "parent": s.Parent, "self_us": us(self[i])},
		}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
