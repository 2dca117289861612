package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// TestJSONGolden walks the registry.  Every entry with a deterministic
// JSON report runs at its tiny preset, and its report, wall-clock
// fields left out, must match testdata/<name>.golden.json; when the
// report has no wall-clock field, the table the same run prints must
// match testdata/<name>.golden.txt.  The report must also encode
// byte-identically on one sweep worker and on four and, for entries
// that read -shards, so must its report at -shards 2.  The simulations
// are pure functions of their seeds and shard count, so any diff is a
// real behavior or format change; regenerate deliberately with
//
//	go test ./cmd/ibsim -run JSONGolden -update
//
// The entries in ownGoldenTests are checked by their own named tests
// below instead.
func TestJSONGolden(t *testing.T) {
	identityChecked := map[string]bool{}
	for _, e := range registry {
		if !hasGolden(e) || slices.Contains(ownGoldenTests, e.name) {
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			goldenTest(t)
			got := checkGolden(t, e)
			if _, golden := goldenArgs(e); !identityChecked[golden] {
				identityChecked[golden] = true // the evaluation views share one run
				checkIdentity(t, e, got)
			}
		})
	}
}

// ownGoldenTests keep a named golden and identity test each.
var ownGoldenTests = []string{"hol", "plan", "scale"}

func TestHOLJSONGolden(t *testing.T)              { checkGolden(t, goldenEntry(t, "hol")) }
func TestHOLJSONParallelIdentical(t *testing.T)   { checkIdentityAlone(t, goldenEntry(t, "hol")) }
func TestPlanJSONGolden(t *testing.T)             { checkGolden(t, goldenEntry(t, "plan")) }
func TestPlanJSONParallelIdentical(t *testing.T)  { checkIdentityAlone(t, goldenEntry(t, "plan")) }
func TestScaleJSONGolden(t *testing.T)            { checkGolden(t, goldenEntry(t, "scale")) }
func TestScaleJSONParallelIdentical(t *testing.T) { checkIdentityAlone(t, goldenEntry(t, "scale")) }

// TestTextGolden walks the registry.  Every entry without a JSON report
// runs at -scale tiny on one sweep worker, with its own tiny base
// written to a -scenario file when it reads one, and its stdout must
// match testdata/<name>.golden.txt: the tables are pure functions of
// the seeds, and an entry's base replays its run.  Any diff is a real
// behavior or format change; regenerate deliberately with
//
//	go test ./cmd/ibsim -run TextGolden -update
func TestTextGolden(t *testing.T) {
	goldenTest(t)
	dir := t.TempDir()
	for _, e := range registry {
		if slices.Contains(e.flags, "json") {
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			args := []string{"-exp", e.name, "-scale", "tiny", "-parallel", "1"}
			if slices.Contains(e.flags, "scenario") {
				data, err := json.Marshal(lookup(t, e.name).Base(experiments.Tiny))
				path := filepath.Join(dir, e.name+".json")
				if err == nil {
					err = os.WriteFile(path, data, 0o644)
				}
				if err != nil {
					t.Fatal(err)
				}
				args = append(args, "-scenario", path)
			}
			var buf bytes.Buffer
			if err := run(args, &buf, io.Discard); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", e.name+".golden.txt"), buf.Bytes())
		})
	}
}

// compareGolden compares got with the golden file, rewriting it first
// under -update.
func compareGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output diverged from %s (rerun with -update if intended)\ngot %d bytes, want %d", golden, len(got), len(want))
	}
}

// hasGolden reports whether e has a deterministic report: it has one,
// and it is not made of timings alone.
func hasGolden(e entry) bool {
	x, _ := experiments.Lookup(e.name)
	return slices.Contains(e.flags, "json") && !slices.Contains(x.WallClock, "runs")
}

// goldenTest skips simulation runs in -short mode.
func goldenTest(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
}

// goldenEntry prepares a golden test and returns the named entry.
func goldenEntry(t *testing.T, name string) entry {
	t.Helper()
	goldenTest(t)
	for _, e := range registry {
		if e.name == name {
			return e
		}
	}
	t.Fatalf("no registry entry %q", name)
	return entry{}
}

// goldenArgs returns the command line that produces e's golden report
// and the golden file it is compared with.
func goldenArgs(e entry) (args []string, golden string) {
	args = []string{"-exp", e.name, "-scale", "tiny", "-json"}
	golden = filepath.Join("testdata", e.name+".golden.json")
	if slices.Contains(e.flags, "trace") {
		// The evaluation views share one document, pinned with its
		// metrics and a four-event trace.
		args = append(args, "-trace", "4")
		golden = filepath.Join("testdata", "tiny.golden.json")
	}
	return args, golden
}

// checkGolden runs e on one sweep worker, compares its report and,
// when the report has no wall-clock field, its table with the golden
// files (rewriting them first under -update) and returns the report.
func checkGolden(t *testing.T, e entry) []byte {
	t.Helper()
	args, golden := goldenArgs(e)
	got, rep := runReport(t, args, "-parallel", "1")
	compareGolden(t, golden, got)
	if len(lookup(t, e.name).WallClock) == 0 {
		var table bytes.Buffer
		if err := rep.Table(&table); err != nil {
			t.Fatal(err)
		}
		compareGolden(t, filepath.Join("testdata", e.name+".golden.txt"), table.Bytes())
	}
	return got
}

// checkIdentity checks that e's report, one as encoded on one sweep
// worker, is the same on four and, if e reads -shards, that its report
// at -shards 2 is too: the parallel core is deterministic at a fixed
// shard count.  The sharded runs leave out -trace, which needs a
// single engine.
func checkIdentity(t *testing.T, e entry, one []byte) {
	t.Helper()
	args, _ := goldenArgs(e)
	if !bytes.Equal(one, encodeReport(t, args, "-parallel", "4")) {
		t.Error("report differs between 1 and 4 sweep workers")
	}
	if !slices.Contains(e.flags, "shards") {
		return
	}
	if i := slices.Index(args, "-trace"); i >= 0 {
		args = slices.Delete(args, i, i+2)
	}
	sharded := append(args, "-shards", "2")
	if !bytes.Equal(encodeReport(t, sharded, "-parallel", "1"), encodeReport(t, sharded, "-parallel", "4")) {
		t.Error("report at -shards 2 differs between 1 and 4 sweep workers")
	}
}

// checkIdentityAlone is checkIdentity with its own one-worker run, for
// tests that do not also check the golden.
func checkIdentityAlone(t *testing.T, e entry) {
	t.Helper()
	args, _ := goldenArgs(e)
	checkIdentity(t, e, encodeReport(t, args, "-parallel", "1"))
}

// encodeReport parses args plus extra, runs the entry and encodes its
// report with the wall-clock fields zeroed.
func encodeReport(t *testing.T, args []string, extra ...string) []byte {
	t.Helper()
	report, _ := runReport(t, args, extra...)
	return report
}

// runReport parses args plus extra and runs the entry: it returns the
// run's report, with its JSON report encoded with the wall-clock fields
// zeroed.
func runReport(t *testing.T, args []string, extra ...string) ([]byte, *experiments.Report) {
	t.Helper()
	x, c, err := parse(append(append([]string(nil), args...), extra...), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run(c.sc, c.opt)
	if err != nil {
		t.Fatal(err)
	}
	report := reflect.New(reflect.TypeOf(rep.JSON)).Elem()
	report.Set(reflect.ValueOf(rep.JSON))
	for i := 0; i < report.NumField(); i++ {
		name, _, _ := strings.Cut(report.Type().Field(i).Tag.Get("json"), ",")
		if slices.Contains(x.WallClock, name) {
			report.Field(i).SetZero()
		}
	}
	var buf bytes.Buffer
	if err := encodeIndented(&buf, report.Interface()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rep
}

// decodeGolden unmarshals the checked-in report of an experiment.
func decodeGolden(t *testing.T, name string, v any) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name+".golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s golden does not parse: %v", name, err)
	}
}

// TestJSONShape checks the fields scripts read from the evaluation
// document, independent of formatting.
func TestJSONShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	var buf bytes.Buffer
	if err := run([]string{"-exp", "all", "-scale", "tiny", "-json", "-metrics", "-trace", "4"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Scale   string `json:"scale"`
		Table2  []any  `json:"table2"`
		Metrics *struct {
			Small *struct {
				Counters struct {
					Picks int64 `json:"picks"`
				} `json:"counters"`
				Trace         []any  `json:"trace"`
				TraceRecorded uint64 `json:"traceRecorded"`
			} `json:"small"`
			Large *struct {
				Counters struct {
					Picks int64 `json:"picks"`
				} `json:"counters"`
			} `json:"large"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if rep.Scale != "tiny" || len(rep.Table2) != 2 {
		t.Fatalf("report header wrong: scale=%q table2=%d rows", rep.Scale, len(rep.Table2))
	}
	m := rep.Metrics
	if m == nil || m.Small == nil || m.Large == nil {
		t.Fatal("metrics dump missing despite -metrics")
	}
	if m.Small.Counters.Picks == 0 || m.Large.Counters.Picks == 0 {
		t.Errorf("no picks counted: small %d, large %d", m.Small.Counters.Picks, m.Large.Counters.Picks)
	}
	if len(m.Small.Trace) == 0 || len(m.Small.Trace) > 4 {
		t.Errorf("trace tail has %d events, want 1..4", len(m.Small.Trace))
	}
	if m.Small.TraceRecorded < uint64(len(m.Small.Trace)) {
		t.Errorf("recorded %d < retained %d", m.Small.TraceRecorded, len(m.Small.Trace))
	}
}

// TestJSONMetricsOmittedWhenDisabled: without -metrics the document
// must not grow a metrics key (scripts key off its presence).
func TestJSONMetricsOmittedWhenDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	var buf bytes.Buffer
	if err := run([]string{"-scale", "tiny", "-json"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	var rep map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if _, present := rep["metrics"]; present {
		t.Error("metrics key present without -metrics")
	}
}

// TestFailoverJSONShape: every point of the failover golden injected a
// schedule, repaired it with a CDG proof, and closed its packet
// accounting.
func TestFailoverJSONShape(t *testing.T) {
	var rep struct {
		Runs []struct {
			Schedule string `json:"schedule"`
			Control  struct {
				RepairsStarted   int64 `json:"repairsStarted"`
				RepairsCompleted int64 `json:"repairsCompleted"`
			} `json:"control"`
			RepairCDG struct {
				Channels int `json:"channels"`
			} `json:"repairCDG"`
			Injected  int64 `json:"injected"`
			Delivered int64 `json:"delivered"`
			Dropped   int64 `json:"dropped"`
			Lost      int64 `json:"lost"`
		} `json:"runs"`
	}
	decodeGolden(t, "failover", &rep)
	if len(rep.Runs) != 3 {
		t.Fatalf("sweep has %d runs, want one per topology class", len(rep.Runs))
	}
	for i, r := range rep.Runs {
		if r.Schedule == "" {
			t.Errorf("run %d: no failure schedule", i)
		}
		if r.Control.RepairsCompleted < 2 || r.Control.RepairsStarted != r.Control.RepairsCompleted {
			t.Errorf("run %d: repairs %d/%d", i, r.Control.RepairsCompleted, r.Control.RepairsStarted)
		}
		if r.RepairCDG.Channels == 0 {
			t.Errorf("run %d: no post-repair CDG proof", i)
		}
		if r.Injected != r.Delivered+r.Dropped+r.Lost {
			t.Errorf("run %d: conservation hole: %d != %d+%d+%d",
				i, r.Injected, r.Delivered, r.Dropped, r.Lost)
		}
	}
}

// TestFaultsJSONShape: the faults golden covers the fault grid, its
// first point is fault-free with a clean control block, and its
// heaviest point dealt faults.
func TestFaultsJSONShape(t *testing.T) {
	var rep struct {
		Runs []struct {
			Drop    float64 `json:"drop"`
			Control struct {
				SMPsDropped int64 `json:"smpsDropped"`
				Retransmits int64 `json:"retransmits"`
			} `json:"control"`
		} `json:"runs"`
	}
	decodeGolden(t, "faults", &rep)
	if len(rep.Runs) < 3 {
		t.Fatalf("sweep has %d runs, want the full fault grid", len(rep.Runs))
	}
	if r := rep.Runs[0]; r.Drop != 0 || r.Control.SMPsDropped != 0 || r.Control.Retransmits != 0 {
		t.Errorf("control point not fault-free: %+v", r)
	}
	last := rep.Runs[len(rep.Runs)-1]
	if last.Drop == 0 || last.Control.SMPsDropped == 0 {
		t.Errorf("heaviest point dealt no faults: %+v", last)
	}
}

// The grid the scale, hol and plan experiments sweep at -scale tiny:
// the smallest member of each topology class, by label, under a light
// and a heavy load, and the switch models of every hol cell.
var (
	tinyGrid  = []string{"irregular-4", "fattree-k2", "dragonfly-a2p1h1"}
	tinyLoads = []float64{0.5, 2}
	holModels = []string{"wrr", "voq-islip", "voq-mwm"}
)

// TestHOLJSONShape: the hol golden covers every (spec, load, model)
// point of the grid in order, the models of a cell share one seed and
// offer the same admitted load, and WRR rows carry no VOQ block while
// the input-queued rows do.
func TestHOLJSONShape(t *testing.T) {
	var rep struct {
		Runs []struct {
			Label    string  `json:"label"`
			Model    string  `json:"model"`
			Load     float64 `json:"load"`
			Seed     int64   `json:"seed"`
			Admitted int     `json:"admitted"`
			VOQ      *struct {
				SchedPasses int64 `json:"schedPasses"`
			} `json:"voq"`
		} `json:"runs"`
	}
	decodeGolden(t, "hol", &rep)
	if want := len(tinyGrid) * len(tinyLoads) * len(holModels); len(rep.Runs) != want {
		t.Fatalf("sweep has %d runs, want %d", len(rep.Runs), want)
	}
	i := 0
	for _, label := range tinyGrid {
		for _, load := range tinyLoads {
			cellSeed := rep.Runs[i].Seed
			cellAdmitted := rep.Runs[i].Admitted
			for _, model := range holModels {
				r := rep.Runs[i]
				if r.Label != label || r.Load != load || r.Model != model {
					t.Errorf("run %d is (%s, %s, %g), want (%s, %s, %g)",
						i, r.Label, r.Model, r.Load, label, model, load)
				}
				if r.Seed != cellSeed {
					t.Errorf("run %d: seed %d differs within its cell (want %d) — models must see identical traffic",
						i, r.Seed, cellSeed)
				}
				if r.Admitted != cellAdmitted {
					t.Errorf("run %d: admitted %d differs within its cell (want %d)",
						i, r.Admitted, cellAdmitted)
				}
				isVOQ := model != "wrr"
				if isVOQ && (r.VOQ == nil || r.VOQ.SchedPasses == 0) {
					t.Errorf("run %d (%s): missing or empty VOQ counters", i, r.Model)
				}
				if !isVOQ && r.VOQ != nil {
					t.Errorf("run %d (wrr): unexpected VOQ counters", i)
				}
				i++
			}
		}
	}
}

// TestPlanJSONShape: the plan golden covers every (spec, load) point of
// the grid in order, every point admitted connections and evaluated
// lanes, the heavy load level is flagged unstable on every topology
// class, the hot-lane list is bounded and utilization-sorted, and the
// wall-clock timing section is left out.
func TestPlanJSONShape(t *testing.T) {
	var rep struct {
		Runs []struct {
			Label          string  `json:"label"`
			Load           float64 `json:"load"`
			Admitted       int     `json:"admitted"`
			Lanes          int     `json:"lanes"`
			SaturatedLanes int     `json:"saturatedLanes"`
			Stable         bool    `json:"stable"`
			HotLanes       []struct {
				Port        string  `json:"port"`
				Utilization float64 `json:"utilization"`
			} `json:"hotLanes"`
			HeadroomLimit string `json:"headroomLimit"`
		} `json:"runs"`
		Timing any `json:"timing"`
	}
	decodeGolden(t, "plan", &rep)
	if rep.Timing != nil {
		t.Error("golden contains the wall-clock timing section")
	}
	loads := append(tinyLoads, 1500) // a load the model must call saturated
	if want := len(tinyGrid) * len(loads); len(rep.Runs) != want {
		t.Fatalf("sweep has %d runs, want %d", len(rep.Runs), want)
	}
	i := 0
	for _, label := range tinyGrid {
		for _, load := range loads {
			r := rep.Runs[i]
			if r.Label != label || r.Load != load {
				t.Errorf("run %d is (%s, %g), want (%s, %g)", i, r.Label, r.Load, label, load)
			}
			if r.Admitted == 0 {
				t.Errorf("run %d admitted no connections", i)
			}
			if r.Lanes == 0 {
				t.Errorf("run %d evaluated no lanes", i)
			}
			if load >= 1000 && r.Stable {
				t.Errorf("run %d (%s, load %g): heavy load reported stable", i, r.Label, load)
			}
			if r.Stable != (r.SaturatedLanes == 0) {
				t.Errorf("run %d: stable=%v with %d saturated lanes", i, r.Stable, r.SaturatedLanes)
			}
			if len(r.HotLanes) == 0 || len(r.HotLanes) > 8 {
				t.Errorf("run %d: %d hot lanes, want 1..8", i, len(r.HotLanes))
			}
			for j := 1; j < len(r.HotLanes); j++ {
				if r.HotLanes[j].Utilization > r.HotLanes[j-1].Utilization {
					t.Errorf("run %d: hot lanes not utilization-sorted at %d", i, j)
				}
			}
			for _, h := range r.HotLanes {
				if !strings.HasPrefix(h.Port, "host ") && !strings.HasPrefix(h.Port, "switch ") {
					t.Errorf("run %d: hot lane port label %q", i, h.Port)
				}
			}
			if r.HeadroomLimit == "" {
				t.Errorf("run %d: empty headroom limit", i)
			}
			i++
		}
	}
}

// TestScaleJSONShape: the scale golden covers every (spec, load) point
// of the grid in order, every point carries a non-trivial acyclic
// channel-dependency graph, and the multi-plane dragonfly engine
// reports its escape plane.
func TestScaleJSONShape(t *testing.T) {
	var rep struct {
		Runs []struct {
			Label  string  `json:"label"`
			Load   float64 `json:"load"`
			Planes int     `json:"planes"`
			CDG    struct {
				Channels int `json:"Channels"`
				Routes   int `json:"Routes"`
			} `json:"cdg"`
			Admitted int `json:"admitted"`
		} `json:"runs"`
	}
	decodeGolden(t, "scale", &rep)
	if want := len(tinyGrid) * len(tinyLoads); len(rep.Runs) != want {
		t.Fatalf("sweep has %d runs, want %d", len(rep.Runs), want)
	}
	i := 0
	for _, label := range tinyGrid {
		for _, load := range tinyLoads {
			r := rep.Runs[i]
			if r.Label != label || r.Load != load {
				t.Errorf("run %d is (%s, %g), want (%s, %g)", i, r.Label, r.Load, label, load)
			}
			if r.CDG.Channels == 0 || r.CDG.Routes == 0 {
				t.Errorf("run %d: empty channel-dependency graph: %+v", i, r.CDG)
			}
			if r.Admitted == 0 {
				t.Errorf("run %d admitted no connections", i)
			}
			i++
		}
	}
	for _, r := range rep.Runs {
		if r.Label == "dragonfly-a2p1h1" && r.Planes != 2 {
			t.Errorf("dragonfly reports %d planes, want 2", r.Planes)
		}
	}
}

// TestReportReplays: a golden report's scenario block, written to a
// file and run through the same entry with -scenario and no other
// scenario flag, reproduces the report byte for byte.  So does the block
// of a report at another -seed, for entries whose runs wire the fabric
// from the run seed; that block shows the seed as its wiring seed.
func TestReportReplays(t *testing.T) {
	for _, tc := range []struct{ name, seed string }{
		{"table2", ""}, {"churn", ""}, {"hol", ""}, {"reconfig", ""}, {"failover", ""},
		{"table2", "2026"}, {"reconfig", "2026"},
	} {
		t.Run(strings.TrimSuffix(tc.name+"-seed"+tc.seed, "-seed"), func(t *testing.T) {
			e := goldenEntry(t, tc.name)
			args, golden := goldenArgs(e)
			var want []byte
			if tc.seed == "" {
				var err error
				if want, err = os.ReadFile(golden); err != nil {
					t.Fatal(err)
				}
			} else {
				golden = strings.Join(append(args, "-seed", tc.seed), " ")
				want = encodeReport(t, args, "-seed", tc.seed, "-parallel", "1")
			}
			var rep struct {
				Scenario json.RawMessage `json:"scenario"`
			}
			if err := json.Unmarshal(want, &rep); err != nil || rep.Scenario == nil {
				t.Fatalf("%s has no scenario block (%v)", golden, err)
			}
			if tc.seed != "" {
				var sc experiments.Scenario
				if err := json.Unmarshal(rep.Scenario, &sc); err != nil {
					t.Fatal(err)
				}
				if s := strconv.FormatInt(sc.Seed, 10); s != tc.seed || sc.Topology.Seed != sc.Seed {
					t.Errorf("%s: scenario Seed %d, Topology.Seed %d, want both %s", golden, sc.Seed, sc.Topology.Seed, tc.seed)
				}
			}
			path := filepath.Join(t.TempDir(), "scenario.json")
			if err := os.WriteFile(path, rep.Scenario, 0o644); err != nil {
				t.Fatal(err)
			}
			got := encodeReport(t, []string{"-exp", tc.name, "-scale", "tiny", "-json", "-scenario", path}, "-parallel", "1")
			if !bytes.Equal(got, want) {
				t.Errorf("replaying the scenario block of %s gives a different report", golden)
			}
		})
	}
}
