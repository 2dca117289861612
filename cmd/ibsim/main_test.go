package main

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestParseSizes(t *testing.T) {
	got, err := parseSizes(" 8, 16,32 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{8, 16, 32}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseSizes = %v, want %v", got, want)
		}
	}
	if _, err := parseSizes("8,x"); err == nil {
		t.Error("bad size list accepted")
	}
}

// TestParamsPresets: every entry resolves every scale to a non-zero
// base scenario, on at least two switches where the entry's base wires
// the fabric it runs, an unknown -scale is refused before anything
// runs, and the plan's quick grid probes more headroom than its tiny
// one.
func TestParamsPresets(t *testing.T) {
	for _, e := range registry {
		t.Run(e.name, func(t *testing.T) {
			err := run([]string{"-exp", e.name, "-scale", "huge"}, io.Discard, io.Discard)
			if err == nil || !strings.Contains(err.Error(), "-scale") {
				t.Errorf("-scale huge: err = %v, want one naming -scale", err)
			}
			if e.scenario == nil {
				return
			}
			for _, s := range scales {
				sc := e.scenario(s)
				if reflect.ValueOf(sc).IsZero() {
					t.Errorf("%s: zero scenario", s)
				}
				if slices.Contains(e.flags, "switches") && sc.Topology.Switches < 2 {
					t.Errorf("%s: switches = %d", s, sc.Topology.Switches)
				}
			}
		})
	}
	_, _, tiny := experiments.PlanGrid(experiments.Tiny)
	if _, _, quick := experiments.PlanGrid(experiments.Quick); quick <= tiny {
		t.Errorf("quick plan grid should probe more headroom than tiny (%d vs %d)", quick, tiny)
	}
}

// TestUnknownExperimentErrorListsNames: a typo'd -exp must name every
// experiment the tool can run, not just reject the input.
func TestUnknownExperimentErrorListsNames(t *testing.T) {
	err := run([]string{"-exp", "bogus"}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("no error for unknown experiment")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"bogus"`) {
		t.Errorf("error %q does not echo the bad experiment name", msg)
	}
	for _, e := range registry {
		if !strings.Contains(msg, e.name) {
			t.Errorf("error %q does not list experiment %q", msg, e.name)
		}
	}
}

// TestRunRejectsBadFlags: a value out of range, or a flag the chosen
// experiment does not read, is an error naming the flag, returned
// before anything runs.  A sweep point the fabric refuses fails the
// run with an error naming the point.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		want string
		args []string
	}{
		{"-churn-seeds", []string{"-exp", "churn", "-churn-seeds", "-1"}},
		{"-churn-seeds", []string{"-exp", "churn", "-churn-seeds", "0"}},
		{"-churn-seeds", []string{"-exp", "churn", "-churn-seeds", "1025"}},
		{"-churn-seeds", []string{"-exp", "churn", "-churn-seeds", "100000000"}},
		{"-traces", []string{"-exp", "ablation-fill", "-traces", "-1"}},
		{"-plan-headroom-sl", []string{"-exp", "plan", "-plan-headroom-sl", "999"}},
		{"-plan-headroom-sl", []string{"-exp", "plan", "-plan-headroom-sl", "77"}},
		{"-trace", []string{"-trace", "-1"}},
		{"-switches", []string{"-exp", "failover", "-switches", "8"}},
		{"-switches", []string{"-exp", "scale", "-switches", "8"}},
		{"-switches", []string{"-exp", "hol", "-switches", "8"}},
		{"-switches", []string{"-exp", "plan", "-switches", "8"}},
		{"-shards", []string{"-exp", "plan", "-shards", "2"}},
		{"-shards", []string{"-exp", "failover", "-scale", "tiny", "-shards", "2"}},
		{"-shards", []string{"-exp", "scale", "-scale", "tiny", "-shards", "-3"}},
		{"-parallel", []string{"-exp", "table2", "-scale", "tiny", "-parallel", "-3"}},
		{"-islip-iters", []string{"-exp", "hol", "-scale", "tiny", "-islip-iters", "-1"}},
		{"-shard-det", []string{"-exp", "failover", "-shard-det"}}, // no such flag
		{"-shard-det", []string{"-exp", "plan", "-shard-det"}},     // no such flag
		{"-json", []string{"-exp", "table1", "-json"}},
		{"-json", []string{"-exp", "scaling", "-json"}},
		{"-viz", []string{"-exp", "table2", "-viz"}},
		{"-viz", []string{"-json", "-viz", "-scale", "tiny"}},
		// A network size no topology can be generated at is refused
		// before any sweep point runs, naming the flag.
		{"-sizes", []string{"-exp", "scaling", "-scale", "tiny", "-sizes", "1"}},
		{"-sizes", []string{"-exp", "scaling", "-scale", "tiny", "-sizes", "0"}},
		{"-sizes", []string{"-exp", "scaling", "-scale", "tiny", "-sizes", "8,-4"}},
		{"-sizes", []string{"-exp", "scaling", "-scale", "tiny", "-sizes", "8,1281"}},
		{"-sizes", []string{"-exp", "scaling", "-scale", "tiny", "-sizes", "8,x"}},
		{"-switches", []string{"-exp", "table2", "-scale", "tiny", "-switches", "-5"}},
		{"-switches", []string{"-exp", "table2", "-scale", "tiny", "-switches", "1281"}},
		{"-switches", []string{"-exp", "ablation-vl", "-scale", "tiny", "-switches", "1"}},
		{"-switches", []string{"-exp", "ablation-switch", "-scale", "tiny", "-switches", "1"}},
		{"-switches", []string{"-exp", "churn", "-scale", "tiny", "-switches", "1"}},
		{"-bench-shards", []string{"-exp", "shardbench", "-bench-k", "4", "-bench-shards", "200"}},
		{"-bench-horizon", []string{"-exp", "shardbench", "-scale", "tiny", "-bench-horizon", "-5"}},
		// A topology shape no generator builds is refused naming the
		// shape's flags, not deep inside the first shard count.
		{"-bench-k", []string{"-exp", "shardbench", "-scale", "tiny", "-bench-k", "0"}},
		{"-bench-k", []string{"-exp", "shardbench", "-scale", "tiny", "-bench-k", "3"}},
		{"-bench-k", []string{"-exp", "shardbench", "-scale", "tiny", "-bench-k", "64"}},
		{"-bench-a", []string{"-exp", "shardbench", "-scale", "tiny", "-bench-class", "dragonfly", "-bench-a", "0"}},
		{"-bench-h", []string{"-exp", "shardbench", "-scale", "tiny", "-bench-class", "dragonfly", "-bench-h", "0"}},
		{"-bench-p", []string{"-exp", "shardbench", "-scale", "tiny", "-bench-class", "dragonfly", "-bench-p", "40"}},
		// More shards than a fabric has switches, and a trace of one
		// engine under several, are refused naming the flags.
		{"-shards", []string{"-exp", "churn", "-scale", "tiny", "-shards", "8"}},
		{"-shards", []string{"-exp", "scale", "-scale", "tiny", "-shards", "8"}},
		{"-trace", []string{"-exp", "table2", "-scale", "tiny", "-shards", "2", "-trace", "4"}},
		{"-shards 2", []string{"-exp", "table2", "-scale", "tiny", "-shards", "2", "-trace", "4"}},
	} {
		err := run(tc.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one naming %s", tc.args, err, tc.want)
		}
	}
}

// TestJSONPrintsChosenReport: -json prints the chosen experiment's
// report alone, not the evaluation document and not the table.
func TestJSONPrintsChosenReport(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "plan", "-scale", "tiny", "-json"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	var rep map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("output is not one JSON document: %v", err)
	}
	for _, key := range []string{"headroomSL", "runs", "timing"} {
		if _, ok := rep[key]; !ok {
			t.Errorf("plan report lacks %q", key)
		}
	}
}
