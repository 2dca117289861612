package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestVBRScenarioTable exercises the single-scenario runner across
// burst shapes and reservation policies.
func TestVBRScenarioTable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	cases := []struct {
		name        string
		peakFactor  int
		burst       int
		switches    int
		windowIATs  int64
		reservePeak bool
	}{
		{"mean-reserved-short-burst", 2, 4, 2, 8, false},
		{"mean-reserved-long-burst", 4, 8, 2, 8, false},
		{"peak-reserved-short-burst", 2, 4, 2, 8, true},
		{"peak-reserved-long-burst", 4, 8, 2, 8, true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			s, err := vbrRun(vbrAt(11, c.switches, c.windowIATs), c.peakFactor, c.burst, c.reservePeak)
			if err != nil {
				t.Fatal(err)
			}
			if s.DeadlineMetPercent < 0 || s.DeadlineMetPercent > 100 {
				t.Errorf("deadline met %% out of range: %v", s.DeadlineMetPercent)
			}
			if s.WorstDelayRatio < 0 {
				t.Errorf("negative worst delay ratio: %v", s.WorstDelayRatio)
			}
		})
	}
}

// TestVBRScenarioDeterministic: the scenario is one seeded engine, so
// repeated runs must agree exactly.
func TestVBRScenarioDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	a, errA := vbrRun(vbrAt(11, 2, 8), 4, 8, false)
	b, errB := vbrRun(vbrAt(11, 2, 8), 4, 8, false)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a != b {
		t.Fatalf("scenario diverged:\n%+v\n%+v", a, b)
	}
}

// TestVBRResultShape: the ablation renders both scenarios under a
// header naming its sources' shape; a scenario that cannot be built
// fails the ablation and names the scenario.
func TestVBRResultShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	if _, err := ablationVBR(vbrAt(11, 1, 6), 1); err == nil || !strings.Contains(err.Error(), "vbr-mean-reserved") {
		t.Errorf("1-switch network: err = %v, want one naming the failed scenario", err)
	}
	res, err := ablationVBR(vbrAt(11, 2, 6), 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	printVBR(&buf, res)
	for _, want := range []string{"peak 4x mean, bursts of 8", "mean rate", "peak rate"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendering missing %q:\n%s", want, buf.String())
		}
	}
}

// vbrAt is the VBR extension's base at seed on the irregular fabric of
// the given size, measured for windowIATs interarrival times.
func vbrAt(seed int64, switches int, windowIATs int64) Scenario {
	sc := vbrScenario(Tiny).seeded(seed)
	sc.Topology.Switches, sc.WindowIATs = switches, windowIATs
	return sc
}
