package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestVLCollapseTable sweeps lane budgets and checks row alignment
// with the input.
func TestVLCollapseTable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	lanes := []int{15, 8, 4}
	rows, err := ablationVLCollapse(evaluationScenario(Tiny), lanes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(lanes) {
		t.Fatalf("%d rows for %d lane budgets", len(rows), len(lanes))
	}
	for i, r := range rows {
		if r.DataVLs != lanes[i] {
			t.Errorf("row %d: DataVLs %d, want %d", i, r.DataVLs, lanes[i])
		}
		if r.Connections <= 0 {
			t.Errorf("%d lanes: no connections", r.DataVLs)
		}
		if r.HostReservation <= 0 {
			t.Errorf("%d lanes: no reservation", r.DataVLs)
		}
		if r.DeadlineMetPercent < 100 {
			t.Errorf("%d lanes: deadline met %.2f%%, want 100 (guarantees must survive collapse)",
				r.DataVLs, r.DeadlineMetPercent)
		}
	}
	// Fewer lanes tighten distances, so the identity mapping admits at
	// least as many connections as the tightest collapse.
	if rows[2].Connections > rows[0].Connections {
		t.Errorf("4 lanes admitted %d > 15 lanes' %d", rows[2].Connections, rows[0].Connections)
	}

	var buf bytes.Buffer
	printVLCollapse(&buf, rows)
	if !strings.Contains(buf.String(), "data VLs") {
		t.Error("rendering incomplete")
	}
}

// TestVLCollapseBadPointFailsSweep: a lane budget the fabric rejects
// (2 is outside its [3,15] range) fails the whole ablation with an
// error naming the budget, instead of printing an error row.
func TestVLCollapseBadPointFailsSweep(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rows, err := ablationVLCollapse(evaluationScenario(Tiny), []int{2, 15}, workers)
		if err == nil || rows != nil {
			t.Fatalf("workers=%d: 2-lane budget accepted (rows %+v)", workers, rows)
		}
		if !strings.Contains(err.Error(), "vlcollapse-2vl") {
			t.Errorf("workers=%d: err = %v, want one naming the 2-lane point", workers, err)
		}
	}
}
