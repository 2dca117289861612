package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// tiny is a repetition small enough for the test suite: one set-up and
// two timed windows a sixteenth of the real length — one and a half
// times it on the k=32 fabric, where a packet needs 3 000 BT to cross
// and the warm-up of real windows ends after 4 000.
func tiny(s spec) sizes {
	sz := sizes{windows: 2, scale: 1.0 / 16}
	if s.k > 8 {
		sz.scale = 1.5
	}
	return sz
}

// TestSmokeEveryWorkload runs all six workloads end to end, untraced
// and traced, and requires every check to pass and every end-to-end
// metric to be a positive number.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, s := range specs {
		rep, err := runUntraced(s, 7, 0, tiny(s))
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", s.name, rep.Failed, rep.Attempted, rep.Failures)
		}
		for _, m := range endToEnd {
			if v := rep.EndToEnd[m.Name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", s.name, m.Name, v)
			}
		}
		traced, err := runPass(s, 7, tiny(s), newTracer(s.name), true)
		if err != nil {
			t.Fatalf("%s traced: %v", s.name, err)
		}
		if traced.failed != 0 {
			t.Errorf("%s traced: %v", s.name, traced.failures)
		}
		for _, name := range exactCounts {
			if a, b := rep.Counts[name], traced.counts[name]; a != b {
				t.Errorf("%s: %s = %v untraced, %v traced", s.name, name, a, b)
			}
		}
		if s.kind != admitKind && traced.counts["fabric.hops"] == 0 {
			t.Errorf("%s: the traced pass counted no hops", s.name)
		}
	}
}

// TestTracedRepetitionReportsEveryLayer runs the full traced repetition
// once, on the workload with the most passes, and requires a value for
// every per-layer metric of the catalogue and a non-zero one for every
// probe.
func TestTracedRepetitionReportsEveryLayer(t *testing.T) {
	s, _ := specByName("wrr-k8-shards2")
	dir := t.TempDir()
	rep, err := runTraced(s, 7, 0, tiny(s), dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Errorf("failures: %v", rep.Failures)
	}
	for _, m := range perLayer {
		v, ok := rep.PerLayer[m.Name]
		if !ok {
			t.Errorf("%s not reported", m.Name)
		}
		if m.Kind == "probe" && !(v > 0) {
			t.Errorf("probe %s = %v", m.Name, v)
		}
	}
	buf, err := os.ReadFile(dir + "/trace-wrr-k8-shards2.json")
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Errorf("trace file does not parse as trace events: %v", err)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesAgree keeps the three places that list workloads and metrics
// identical: the catalogue this program prints from, BENCHMARK.json,
// and the README tables.
func TestNamesAgree(t *testing.T) {
	type entry struct{ Name, Why, Unit, Better string }
	var file struct {
		Workloads []entry
		EndToEnd  []struct {
			entry
			Bound float64
		} `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &file); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	// Every documented name opens a table row as | `name` |.
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(string(readme), -1) {
		documented[m[1]] = true
	}

	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
		if !documented[name] {
			t.Errorf("%q is not documented in README.md", name)
		}
	}

	// BENCHMARK.json lists the gated workloads, in order; the README
	// documents all six.
	var gated []spec
	for _, s := range specs {
		check(s.name)
		if len(s.why) > 200 {
			t.Errorf("%s: reason longer than 200 characters", s.name)
		}
		if s.gated {
			gated = append(gated, s)
		}
	}
	if len(file.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated", len(file.Workloads), len(gated))
	}
	for i, s := range gated {
		if f := file.Workloads[i]; f.Name != s.name || f.Why != s.why {
			t.Errorf("workload %d: gated %q, BENCHMARK.json %q (or their reasons differ)", i, s.name, f.Name)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", len(file.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		check(m.Name)
		f := file.EndToEnd[i]
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better || f.Bound != m.Bound {
			t.Errorf("end-to-end %s: BENCHMARK.json has %+v", m.Name, f)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue", len(file.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		check(m.Name)
		if f := file.PerLayer[i]; f.Name != m.Name || f.Unit != m.Unit {
			t.Errorf("per-layer %s: BENCHMARK.json has %+v", m.Name, f)
		}
	}
	for name := range documented {
		if !seen[name] {
			t.Errorf("README.md documents %q, which the benchmark does not report", name)
		}
	}
}

// TestEveryLayerMetricNamesWhatItMoves checks the interaction table: a
// per-layer metric says which end-to-end metric on which workload it
// should move, or that it is tracked for its own sake.
func TestEveryLayerMetricNamesWhatItMoves(t *testing.T) {
	valid := map[string]bool{"none": true}
	for _, s := range specs {
		for _, m := range endToEnd {
			valid[m.Name+"@"+s.name] = true
		}
	}
	for _, m := range perLayer {
		if len(m.Moves) == 0 {
			t.Errorf("%s names nothing it moves", m.Name)
		}
		for _, mv := range m.Moves {
			if !valid[mv] {
				t.Errorf("%s moves %q, which is not an end-to-end metric on a workload", m.Name, mv)
			}
		}
		if !strings.Contains("probe span count derived", m.Kind) || m.Kind == "" {
			t.Errorf("%s has kind %q", m.Name, m.Kind)
		}
	}
}

func TestQuantilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	var v []float64
	for i := 10; i >= 1; i-- {
		v = append(v, float64(i))
	}
	s := summarize(v)
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 || s.N != 10 {
		t.Errorf("summary %+v", s)
	}
	if got := s.spread(); got != 1 {
		t.Errorf("spread %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if s := summarize([]float64{3, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("three samples: %+v", s)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of four = %v", m)
	}
	sorted := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	sort.Float64s(sorted)
	if q := quantile(sorted, 0.9); math.Abs(q-99) > 1e-9 {
		t.Errorf("p90 = %v, want 99", q)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "setup", Start: msec(0), End: msec(100), Parent: -1},
		{Name: "generate", Start: msec(0), End: msec(10), Parent: 0},
		{Name: "new", Start: msec(10), End: msec(70), Parent: 0},
		{Name: "fill", Start: msec(20), End: msec(50), Parent: 2},
		{Name: "window", Start: msec(100), End: msec(300), Parent: -1},
	}
	want := []time.Duration{msec(30), msec(10), msec(30), msec(30), msec(200)}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("%s: self time %v, want %v", spans[i].Name, got, want[i])
		}
	}
	total, self := totalsByName(spans)
	if total["setup"] != msec(100) || self["setup"] != msec(30) {
		t.Errorf("setup: total %v self %v", total["setup"], self["setup"])
	}

	tr := newTracer("t")
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	if tr.spans[inner].Parent != outer || tr.spans[outer].Parent != -1 || len(tr.open) != 0 {
		t.Errorf("nesting: %+v", tr.spans)
	}
	var off *tracer
	off.end(off.begin("ignored")) // the untraced run: no spans, no panic
}

func TestVerdict(t *testing.T) {
	rate := metricDef{Name: mWork, Better: "higher"}
	cost := metricDef{Name: mSetup, Better: "lower"}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name string
		m    metricDef
		a, b []float64
		want string
	}{
		{"same", rate, steady, []float64{101, 100, 99, 100, 101}, "unchanged"},
		{"slower rate", rate, steady, []float64{80, 81, 79, 80, 82}, "regressed"},
		{"faster rate", rate, steady, []float64{120, 121, 119, 120, 122}, "improved"},
		{"higher cost", cost, steady, []float64{120, 121, 119, 120, 122}, "regressed"},
		{"lower cost", cost, steady, []float64{80, 81, 79, 80, 82}, "improved"},
		{"noisy", rate, []float64{70, 100, 130, 85, 115}, []float64{75, 95, 125, 90, 110}, "unresolved"},
		{"noisy but separated", rate, []float64{70, 100, 130, 85, 115}, []float64{200, 260, 320, 230, 290}, "improved"},
		{"no run completed", rate, steady, nil, "failed"},
	} {
		if got, _ := verdict(tc.m, 0.10, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	// An exact bound: the same value is unchanged, any loss a regression.
	same := []float64{0.8, 0.8, 0.8}
	if got, _ := verdict(rate, 0, same, same); got != "unchanged" {
		t.Errorf("exact, same: %s", got)
	}
	if got, _ := verdict(rate, 0, same, []float64{0.79, 0.79, 0.79}); got != "regressed" {
		t.Errorf("exact, lower: %s", got)
	}
}

// TestCrashedRepetitionIsNotAZero: a repetition whose process died has
// no measurements, and must not enter the medians as 0.
func TestCrashedRepetitionIsNotAZero(t *testing.T) {
	crashed := &repetition{}
	crashed.fail("did not complete")
	wr := &workloadResult{Repetitions: []*repetition{
		{EndToEnd: map[string]float64{mWork: 100}, Counts: map[string]float64{"sim.events": 5}},
		crashed,
		{EndToEnd: map[string]float64{mWork: 102}, Counts: map[string]float64{"sim.events": 6}},
	}}
	if v := wr.values(mWork); len(v) != 2 || v[0] != 100 || v[1] != 102 {
		t.Errorf("values %v, want the two completed repetitions", v)
	}
	wr.checkCounts()
	if got := wr.Repetitions[2].Failed; got != 1 {
		t.Errorf("differing count failed %d operations, want 1", got)
	}
	if crashed.Failed != 1 {
		t.Errorf("crashed repetition charged %d failures, want only its own", crashed.Failed)
	}
}

func TestSameSeedBounds(t *testing.T) {
	for _, m := range endToEnd {
		for _, s := range specs {
			if same, across := m.boundOn(s.name, true), m.boundOn(s.name, false); same > across || across != m.Bound {
				t.Errorf("%s on %s: same-seed bound %v, across seeds %v", m.Name, s.name, same, across)
			}
		}
		for name := range m.SameSeedOn {
			if _, ok := specByName(name); !ok {
				t.Errorf("%s has a bound for %q, which is not a workload", m.Name, name)
			}
		}
	}
}
