package main

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
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

// TestParamsPresets: every entry resolves every scale to parameters of
// one type, and an unknown -scale is refused before anything runs.
func TestParamsPresets(t *testing.T) {
	for _, e := range registry {
		t.Run(e.name, func(t *testing.T) {
			err := run([]string{"-exp", e.name, "-scale", "huge"}, io.Discard, io.Discard)
			if err == nil || !strings.Contains(err.Error(), "-scale") {
				t.Errorf("-scale huge: err = %v, want one naming -scale", err)
			}
			if e.preset == nil {
				return
			}
			tiny := e.preset("tiny")
			for _, scale := range scales {
				p := e.preset(scale)
				if reflect.TypeOf(p) != reflect.TypeOf(tiny) || reflect.ValueOf(p).IsZero() {
					t.Errorf("%s: preset %#v", scale, p)
				}
				if ev, ok := p.(experiments.Params); ok && ev.Switches < 2 {
					t.Errorf("%s: switches = %d", scale, ev.Switches)
				}
			}
			if tiny, ok := tiny.(experiments.PlanParams); ok {
				if quick := e.preset("quick").(experiments.PlanParams); quick.HeadroomMax <= tiny.HeadroomMax {
					t.Errorf("quick plan preset should probe more headroom than tiny (%d vs %d)",
						quick.HeadroomMax, tiny.HeadroomMax)
				}
			}
		})
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
		{"-traces", []string{"-exp", "ablation-fill", "-traces", "-1"}},
		{"-plan-headroom-sl", []string{"-exp", "plan", "-plan-headroom-sl", "999"}},
		{"-plan-headroom-sl", []string{"-exp", "plan", "-plan-headroom-sl", "77"}},
		{"-trace", []string{"-trace", "-1"}},
		{"-switches", []string{"-exp", "failover", "-switches", "8"}},
		{"-switches", []string{"-exp", "scale", "-switches", "8"}},
		{"-switches", []string{"-exp", "hol", "-switches", "8"}},
		{"-switches", []string{"-exp", "plan", "-switches", "8"}},
		{"-shards", []string{"-exp", "plan", "-shards", "2"}},
		{"-shard-det", []string{"-exp", "failover", "-shard-det"}},
		{"-shard-det", []string{"-exp", "plan", "-shard-det"}},
		{"-json", []string{"-exp", "table1", "-json"}},
		{"-json", []string{"-exp", "scaling", "-json"}},
		{"-viz", []string{"-exp", "table2", "-viz"}},
		{"-viz", []string{"-json", "-viz", "-scale", "tiny"}},
		// A sweep point that fails fails the run and is named.
		{"scaling-1sw", []string{"-exp", "scaling", "-scale", "tiny", "-sizes", "1"}},
		{"vlcollapse-15vl", []string{"-exp", "ablation-vl", "-scale", "tiny", "-switches", "1"}},
		{"switchmodel-x1", []string{"-exp", "ablation-switch", "-scale", "tiny", "-switches", "1"}},
		{"-bench-shards", []string{"-exp", "shardbench", "-bench-k", "4", "-bench-shards", "200"}},
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
