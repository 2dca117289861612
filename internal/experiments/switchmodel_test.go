package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestSwitchModelTable sweeps crossbar speedups and checks the
// monotone story the ablation tells: more internal speedup never
// worsens the delay tail.  A speedup the fabric rejects fails the
// sweep and names the point.
func TestSwitchModelTable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	speedups := []int{1, 2, 4}
	rows, err := ablationSwitchModels(evaluationScenario(Tiny), speedups, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(speedups) {
		t.Fatalf("%d rows for %d speedups", len(rows), len(speedups))
	}
	for i, r := range rows {
		if r.Speedup != speedups[i] {
			t.Errorf("row %d echoes speedup %d, want %d", i, r.Speedup, speedups[i])
		}
		if r.DeadlineMetPercent <= 0 || r.DeadlineMetPercent > 100 {
			t.Errorf("speedup %d: deadline met %.2f%% out of range", r.Speedup, r.DeadlineMetPercent)
		}
		if r.WorstDelayRatio < r.MeanDelayRatio {
			t.Errorf("speedup %d: worst ratio %.3f below mean %.3f", r.Speedup, r.WorstDelayRatio, r.MeanDelayRatio)
		}
	}
	// Doubling the crossbar must not worsen the bare model's tail.
	// (Beyond 2x the differences are quantization noise at tiny scale
	// — transfer-time rounding can reorder packets either way — so the
	// monotone claim is only asserted for the step the paper's
	// companion study makes.)
	if rows[1].WorstDelayRatio > rows[0].WorstDelayRatio+1e-9 {
		t.Errorf("speedup 2 worst delay %.3f exceeds bare model's %.3f",
			rows[1].WorstDelayRatio, rows[0].WorstDelayRatio)
	}

	var buf bytes.Buffer
	printSwitchModels(&buf, rows)
	if out := buf.String(); !strings.Contains(out, "speedup") {
		t.Errorf("rendering incomplete:\n%s", out)
	}

	// 0 is invalid: the crossbar needs speedup >= 1.
	if _, err := ablationSwitchModels(evaluationScenario(Tiny), []int{0, 1}, 1); err == nil || !strings.Contains(err.Error(), "switchmodel-x0") {
		t.Errorf("speedup 0: err = %v, want one naming the point", err)
	}
}

// TestSwitchModelDeterministic: rows must not depend on sweep
// scheduling or worker count.
func TestSwitchModelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	a, err := ablationSwitchModels(evaluationScenario(Tiny), []int{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ablationSwitchModels(evaluationScenario(Tiny), []int{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d diverged:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}
