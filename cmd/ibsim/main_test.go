package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestParamsPresets: every entry resolves every scale to a non-zero
// base scenario, on at least two switches where the entry's base wires
// the fabric it runs, that Validate accepts with the entry's axis and
// that decodes from its own encoding unchanged; an unknown -scale is
// refused before anything runs, and the plan's quick grid probes more
// headroom than its tiny one.
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
				if err := sc.Validate(e.axis...); err != nil {
					t.Errorf("%s: %v", s, err)
				}
				data, err := json.Marshal(sc)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := experiments.DecodeScenario(data, experiments.Scenario{}); err != nil || got != sc {
					t.Errorf("%s: decode(encode(base)) = %+v, %v; want %+v", s, got, err, sc)
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
// before anything runs.  A -scenario file (a row's doc) with an unknown
// field, a value of the wrong type or out of its range, a topology
// shape no generator builds, or a change to a field the entry's axis
// sets at every point, is refused before anything runs with an error
// naming the field.  An entry that does not run its whole scenario
// refuses -scenario as it refuses any flag it does not read.  A sweep
// point the fabric refuses fails the run with an error naming the
// point.
func TestRunRejectsBadFlags(t *testing.T) {
	dir := t.TempDir()
	tiny := func(exp string) []string { return []string{"-exp", exp, "-scale", "tiny"} }
	for i, tc := range []struct {
		want string
		args []string
		doc  string
	}{
		{"-churn-seeds", []string{"-exp", "churn", "-churn-seeds", "-1"}, ""},
		{"-churn-seeds", []string{"-exp", "churn", "-churn-seeds", "0"}, ""},
		{"-churn-seeds", []string{"-exp", "churn", "-churn-seeds", "1025"}, ""},
		{"-churn-seeds", []string{"-exp", "churn", "-churn-seeds", "100000000"}, ""},
		{"-plan-headroom-sl", []string{"-exp", "plan", "-plan-headroom-sl", "999"}, ""},
		{"-plan-headroom-sl", []string{"-exp", "plan", "-plan-headroom-sl", "77"}, ""},
		{"-trace", []string{"-trace", "-1"}, ""},
		{"-switches", []string{"-exp", "failover", "-switches", "8"}, ""},
		{"-switches", []string{"-exp", "scale", "-switches", "8"}, ""},
		{"-switches", []string{"-exp", "hol", "-switches", "8"}, ""},
		{"-switches", []string{"-exp", "plan", "-switches", "8"}, ""},
		{"-shards", []string{"-exp", "plan", "-shards", "2"}, ""},
		{"-shards", []string{"-exp", "failover", "-scale", "tiny", "-shards", "2"}, ""},
		{"-shards", []string{"-exp", "scale", "-scale", "tiny", "-shards", "-3"}, ""},
		{"-parallel", []string{"-exp", "table2", "-scale", "tiny", "-parallel", "-3"}, ""},
		{"-shard-det", []string{"-exp", "failover", "-shard-det"}, ""}, // no such flag
		{"-shard-det", []string{"-exp", "plan", "-shard-det"}, ""},     // no such flag
		{"-json", []string{"-exp", "table1", "-json"}, ""},
		{"-json", []string{"-exp", "scaling", "-json"}, ""},
		{"-viz", []string{"-exp", "table2", "-viz"}, ""},
		{"-viz", []string{"-json", "-viz", "-scale", "tiny"}, ""},
		// A network size no topology can be generated at is refused
		// before any sweep point runs, naming the flag.
		{"-switches", []string{"-exp", "table2", "-scale", "tiny", "-switches", "-5"}, ""},
		{"-switches", []string{"-exp", "table2", "-scale", "tiny", "-switches", "1281"}, ""},
		{"-switches", []string{"-exp", "ablation-vl", "-scale", "tiny", "-switches", "1"}, ""},
		{"-switches", []string{"-exp", "ablation-switch", "-scale", "tiny", "-switches", "1"}, ""},
		{"-switches", []string{"-exp", "churn", "-scale", "tiny", "-switches", "1"}, ""},
		{"Topology.Switches", tiny("churn"), `{"Topology": {"Switches": 1}}`},
		// Unknown fields and values of the wrong type or range.
		{"Bogus", tiny("table2"), `{"Bogus": 1}`},
		{"Fabric.Bogus", tiny("hol"), `{"Fabric": {"Bogus": 1}}`},
		{"fabric", tiny("hol"), `{"fabric": {"ISLIPIters": 1}}`}, // keys are spelled exactly
		{"Fabric.ISLIPIters", tiny("hol"), `{"Fabric": {"ISLIPIters": -1}}`},
		{"Fabric.ISLIPIters", tiny("hol"), `{"Fabric": {"ISLIPIters": "one"}}`},
		{"Faults.Reorder", tiny("faults"), `{"Faults": {"Reorder": 1.5}}`},
		{"HorizonBT", tiny("shardbench"), `{"HorizonBT": -5}`},
		{"HorizonBT", tiny("shardbench"), `{"HorizonBT": 0}`},
		{"Fabric.Shards", tiny("shardbench"), `{"Topology": {"K": 4}, "Fabric": {"Shards": 200}}`},
		{"Fabric.Shards", tiny("shardbench"), `{"Fabric": {"Shards": -1}}`},
		// A topology shape no generator builds is refused naming the
		// shape's fields, not deep inside the first shard count.
		{"Topology.K", tiny("shardbench"), `{"Topology": {"K": 0}}`},
		{"Topology.K", tiny("shardbench"), `{"Topology": {"K": 3}}`},
		{"Topology.K", tiny("shardbench"), `{"Topology": {"K": 64}}`},
		{"Topology.A", tiny("shardbench"), `{"Topology": {"Class": "dragonfly", "A": 0, "P": 8, "H": 8}}`},
		{"Topology.H", tiny("shardbench"), `{"Topology": {"Class": "dragonfly", "A": 16, "P": 8, "H": 0}}`},
		{"Topology.P", tiny("shardbench"), `{"Topology": {"Class": "dragonfly", "A": 16, "P": 40, "H": 8}}`},
		{"Topology.Class", tiny("shardbench"), `{"Topology": {"Class": "torus"}}`},
		// Fields the entry's axis sets at every point.
		{"Topology", tiny("scale"), `{"Topology": {"Class": "fattree", "K": 4}}`},
		{"Topology", tiny("hol"), `{"Topology": {"Class": "fattree", "K": 4}}`},
		{"Topology", tiny("plan"), `{"Topology": {"Class": "fattree", "K": 4}}`},
		{"Load", tiny("scale"), `{"Load": 3}`},
		{"Fabric.SwitchModel", tiny("hol"), `{"Fabric": {"SwitchModel": "voq-mwm"}}`},
		{"Fabric.PayloadBytes", tiny("table2"), `{"Fabric": {"PayloadBytes": 2048}}`},
		{"Fabric.PayloadBytes", tiny("figure6"), `{"Fabric": {"PayloadBytes": 2048}}`},
		{"Topology.Switches", tiny("scaling"), `{"Topology": {"Switches": 8}}`},
		{"Topology.Seed", tiny("churn"), `{"Topology": {"Seed": 9}}`},
		{"Faults.Drop", tiny("faults"), `{"Faults": {"Drop": 0.5}}`},
		{"Fabric.Seed", tiny("table2"), `{"Fabric": {"Seed": 9}}`},
		// Entries that do not run their whole scenario.
		{"-scenario", tiny("table1"), `{}`},
		{"-scenario", tiny("ablation-priority"), `{}`},
		{"-scenario", tiny("ablation-fill"), `{}`},
		{"-scenario", tiny("vbr"), `{}`},
		{"-scenario", tiny("reconfig"), `{}`},
		{"-scenario", []string{"-exp", "hol", "-scenario", filepath.Join(dir, "missing.json")}, ""},
		// More shards than a fabric has switches, and a trace of one
		// engine under several, are refused naming the flags, or the
		// fields when a file set them.
		{"-shards", []string{"-exp", "churn", "-scale", "tiny", "-shards", "8"}, ""},
		{"-shards", []string{"-exp", "scale", "-scale", "tiny", "-shards", "8"}, ""},
		{"-trace", []string{"-exp", "table2", "-scale", "tiny", "-shards", "2", "-trace", "4"}, ""},
		{"-shards 2", []string{"-exp", "table2", "-scale", "tiny", "-shards", "2", "-trace", "4"}, ""},
		{"Trace, Fabric.Shards", tiny("table2"), `{"Trace": 4, "Fabric": {"Shards": 2}}`},
	} {
		args := tc.args
		if tc.doc != "" {
			path := filepath.Join(dir, fmt.Sprintf("%d.json", i))
			if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			args = append(args, "-scenario", path)
		}
		err := run(args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v %s: err = %v, want one naming %s", args, tc.doc, err, tc.want)
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

// TestDocumentedCommandsParse: every ibsim command line in the docs,
// the CI script and the verify recipe parses, without running, and
// every -scenario file it names exists.  A doc can then never name a
// removed flag.
func TestDocumentedCommandsParse(t *testing.T) {
	root := filepath.Join("..", "..")
	count := 0
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "scripts/ci.sh", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		for n := 0; n < len(lines); n++ {
			start, line := n, lines[n]
			for strings.HasSuffix(line, "\\") && n+1 < len(lines) { // a shell line continuation
				n++
				line = strings.TrimSuffix(line, "\\") + " " + lines[n]
			}
			for _, args := range ibsimCommands(line) {
				count++
				for i, arg := range args {
					if i > 0 && args[i-1] == "-scenario" {
						args[i] = filepath.Join(root, arg)
					}
				}
				if _, _, err := parse(args, io.Discard); err != nil && !errors.Is(err, flag.ErrHelp) {
					t.Errorf("%s:%d: ibsim %s: %v", doc, start+1, strings.Join(args, " "), err)
				}
			}
		}
	}
	if count < 20 {
		t.Errorf("found only %d documented ibsim command lines", count)
	}
}

// ibsimCommands returns the arguments of each ibsim command line in
// line: the flags after "ibsim" or "go run ./cmd/ibsim", up to a shell
// or markdown terminator.  A go test or go build of the package is no
// command line.
func ibsimCommands(line string) [][]string {
	var out [][]string
	for rest, at := line, 0; ; {
		i := strings.Index(rest, "ibsim ")
		if i < 0 {
			return out
		}
		before := line[:at+i]
		rest, at = rest[i+len("ibsim "):], at+i+len("ibsim ")
		if strings.HasSuffix(before, "/") && !strings.HasSuffix(before, "go run ./cmd/") && !strings.HasSuffix(before, "/tmp/") {
			continue
		}
		cmd, _, _ := strings.Cut(rest, "`")
		if j := strings.IndexAny(cmd, "#|>;&()\""); j >= 0 {
			cmd = cmd[:j]
		}
		if args := strings.Fields(cmd); len(args) > 0 && strings.HasPrefix(args[0], "-") {
			out = append(out, args)
		}
	}
}
