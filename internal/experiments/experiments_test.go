package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/fabric"
	"repro/internal/topology"
)

func TestTable1Config(t *testing.T) {
	rows := Table1()
	if len(rows) != 10 {
		t.Fatalf("got %d SLs, want 10", len(rows))
	}
	for _, r := range rows {
		if r.WeightRange[0] < 1 || r.WeightRange[1] < r.WeightRange[0] {
			t.Errorf("SL %d: bad weight range %v", r.SL, r.WeightRange)
		}
		if r.HopDeadlineBT <= 0 {
			t.Errorf("SL %d: bad deadline", r.SL)
		}
	}
	var buf bytes.Buffer
	PrintTable1(&buf)
	if !strings.Contains(buf.String(), "DBTS") || !strings.Contains(buf.String(), "MaxDistance") {
		t.Errorf("Table 1 rendering incomplete:\n%s", buf.String())
	}
}

func TestSetupLoadsNetwork(t *testing.T) {
	run, err := loaded(EvaluationScenario(Tiny))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Flows) == 0 {
		t.Fatal("no QoS flows")
	}
	if len(run.BEFlows) == 0 {
		t.Fatal("no best-effort flows")
	}
	// Admission control must have left the tables self-consistent.
	if err := run.Net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The fill must have pushed some port to (near) its budget;
	// otherwise the run does not exercise a loaded network.
	if run.Net.Adm.MeanHostReservation() <= 0 {
		t.Error("network not loaded")
	}
}

// TestBuildRefusesControlPlaneWithoutInband: SMP faults and failure
// recovery ride the in-band programmer, so a scenario asking for
// either without it is refused before anything is built.
func TestBuildRefusesControlPlaneWithoutInband(t *testing.T) {
	for _, sc := range []Scenario{FaultsScenario(Tiny), FailoverScenario(Tiny)} {
		sc.Inband = false
		if _, err := build(sc); err == nil || !strings.Contains(err.Error(), "in-band") {
			t.Errorf("SMPFaults %v, FailAtBT %d without Inband: err = %v, want a refusal naming the in-band programmer",
				sc.SMPFaults, sc.FailAtBT, err)
		}
	}
}

// TestPointsRefuseBadLoads: every fabric run that takes an offered-load
// factor refuses one that is NaN, infinite, not positive or above
// admission.MaxLoadFactor with an error — never a panic, never a hang
// (a NaN load used to schedule events in the past, an infinite or huge
// one to spin on zero-interval best-effort sources).  Each call runs
// under a deadline drawn from the test's own, so a hang fails the test.
func TestPointsRefuseBadLoads(t *testing.T) {
	spec := topology.Spec{Class: topology.FatTree, K: 2}
	runs := []struct {
		name string
		run  func(load float64) error
	}{
		{"scale", func(load float64) error {
			_, err := scalePoint(ScaleScenario(Tiny).at(spec, load, 1))
			return err
		}},
		{"hol", func(load float64) error {
			sc := ScaleScenario(Tiny).at(spec, load, 1)
			sc.Fabric.SwitchModel = fabric.ModelVOQISLIP
			_, err := holPoint(sc)
			return err
		}},
		{"shardbench", func(load float64) error {
			sc := ShardBenchScenario(Tiny)
			sc.Topology, sc.Load, sc.Fabric.Shards = spec, load, 1
			_, err := ShardBench(sc)
			return err
		}},
	}
	wait := 20 * time.Second
	if dl, ok := t.Deadline(); ok {
		wait = min(wait, time.Until(dl)/4)
	}
	for _, r := range runs {
		for _, load := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 10 * admission.MaxLoadFactor} {
			done := make(chan error, 1)
			go func() {
				defer func() {
					if p := recover(); p != nil {
						done <- fmt.Errorf("panic: %v", p)
					}
				}()
				done <- r.run(load)
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "out of range") {
					t.Errorf("%s at load %g: err = %v, want an out-of-range error", r.name, load, err)
				}
			case <-time.After(wait):
				t.Fatalf("%s at load %g: no answer within %v", r.name, load, wait)
			}
		}
	}
}

// TestTinyEvaluationShapes executes the full pipeline at tiny scale
// and checks the paper's qualitative results:
//   - every QoS service level delivers (nearly) all packets before its
//     deadline (Figure 4 / Table 2);
//   - jitter concentrates in the central interval and stays within
//     +/- IAT (Figure 5);
//   - best and worst connections of a SL behave similarly (Figure 6).
func TestTinyEvaluationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	ev, err := Evaluate(EvaluationScenario(Tiny), 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := ev.Table2()
	for _, row := range rows {
		if row.DeliveredPerNode <= 0 {
			t.Errorf("payload %d: no delivered traffic", row.Payload)
		}
		if row.DeadlineMetPercent < 100 {
			t.Errorf("payload %d: only %.2f%% of packets met deadlines", row.Payload, row.DeadlineMetPercent)
		}
		if row.HostUtilization <= 0 || row.HostUtilization > 100 {
			t.Errorf("payload %d: host utilization %.2f out of range", row.Payload, row.HostUtilization)
		}
	}

	f4 := ev.Figure4()
	for _, s := range f4.Small {
		if s.Packets == 0 {
			t.Errorf("figure4: SL %d has no packets", s.SL)
			continue
		}
		last := s.Percent[len(s.Percent)-1]
		if last < 100 {
			t.Errorf("figure4: SL %d only %.1f%% before deadline", s.SL, last)
		}
		// The CDF must be non-decreasing.
		for i := 1; i < len(s.Percent); i++ {
			if s.Percent[i] < s.Percent[i-1]-1e-9 {
				t.Errorf("figure4: SL %d CDF decreases at %d", s.SL, i)
			}
		}
	}

	f5 := ev.Figure5()
	for _, s := range f5 {
		if s.Samples < 3 {
			continue // too few interarrivals to judge
		}
		within := 0.0
		for i := 1; i < len(s.Percent)-1; i++ {
			within += s.Percent[i]
		}
		if within < 99.0 {
			t.Errorf("figure5: SL %d only %.1f%% within +/-IAT", s.SL, within)
		}
	}

	f6 := ev.Figure6()
	for _, s := range f6 {
		// Best and worst must both meet the deadline.
		if s.Best[len(s.Best)-1] < 100 || s.Worst[len(s.Worst)-1] < 100 {
			t.Errorf("figure6: SL %d best/worst missed deadline", s.SL)
		}
	}

	var buf bytes.Buffer
	PrintTable2(&buf, rows)
	PrintFigure4(&buf, "Figure 4a (small)", f4.Small)
	PrintFigure5(&buf, "Figure 5", f5)
	PrintFigure6(&buf, f6)
	out := buf.String()
	for _, want := range []string{"Injected traffic", "Figure 5", "Figure 6"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q", want)
		}
	}
}

func TestAblationPrioritySplit(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	res, err := AblationPrioritySplit(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewSchemeGoodput < 0.95 {
		t.Errorf("new scheme: victim goodput %.3f, want ~1 (the paper's guarantee)", res.NewSchemeGoodput)
	}
	if res.OldSchemeGoodput > res.NewSchemeGoodput/2 {
		t.Errorf("old scheme: victim goodput %.3f not starved (new %.3f); ablation has no signal",
			res.OldSchemeGoodput, res.NewSchemeGoodput)
	}
	var buf bytes.Buffer
	PrintPrioritySplit(&buf, res)
	if !strings.Contains(buf.String(), "new scheme") {
		t.Error("rendering incomplete")
	}
}

func TestAblationFillPolicies(t *testing.T) {
	rows, err := AblationFillPolicies(10, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	br, nat := rows[0], rows[1]
	if br.Policy != "bit-reversal" || nat.Policy != "natural" {
		t.Fatalf("unexpected policies %q, %q", br.Policy, nat.Policy)
	}
	if br.FalseRejects != 0 {
		t.Errorf("bit-reversal falsely rejected %d", br.FalseRejects)
	}
	if br.Serviceability != 1.0 {
		t.Errorf("bit-reversal serviceability %.4f, want 1", br.Serviceability)
	}
	if nat.Serviceability >= 1.0 && nat.FalseRejects == 0 {
		t.Error("naive policy shows no fragmentation; ablation has no signal")
	}
	if br.MeanFillUntilReject <= nat.MeanFillUntilReject {
		t.Errorf("bit-reversal fill %.1f <= natural %.1f", br.MeanFillUntilReject, nat.MeanFillUntilReject)
	}
	var buf bytes.Buffer
	PrintFillPolicies(&buf, rows)
	if !strings.Contains(buf.String(), "bit-reversal") {
		t.Error("rendering incomplete")
	}
}

func TestScalingTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	rows, err := Scaling(EvaluationScenario(Tiny), []int{2, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.DeadlineMetPercent < 100 {
			t.Errorf("%d switches: deadline met %.2f%%", r.Switches, r.DeadlineMetPercent)
		}
		if r.Connections == 0 {
			t.Errorf("%d switches: no connections", r.Switches)
		}
	}
	var buf bytes.Buffer
	PrintScaling(&buf, rows)
	if !strings.Contains(buf.String(), "switches") {
		t.Error("rendering incomplete")
	}
}

func TestAblationVLCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	rows, err := AblationVLCollapse(EvaluationScenario(Tiny), []int{15, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, collapsed := rows[0], rows[1]
	// Fewer lanes force stricter placement distances, so fewer
	// connections fit; the guarantees themselves must survive.
	if collapsed.Connections >= full.Connections {
		t.Errorf("collapse admitted %d >= full %d connections; ablation has no signal",
			collapsed.Connections, full.Connections)
	}
	if full.DeadlineMetPercent < 100 || collapsed.DeadlineMetPercent < 100 {
		t.Errorf("deadlines broken: full %.2f%%, collapsed %.2f%%",
			full.DeadlineMetPercent, collapsed.DeadlineMetPercent)
	}
	var buf bytes.Buffer
	PrintVLCollapse(&buf, rows)
	if !strings.Contains(buf.String(), "data VLs") {
		t.Error("rendering incomplete")
	}
}

func TestAblationSwitchModels(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	rows, err := AblationSwitchModels(EvaluationScenario(Tiny), []int{1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Higher speedup must not make the delay tail worse.
	if rows[1].WorstDelayRatio > rows[0].WorstDelayRatio+1e-9 {
		t.Errorf("speedup 2 worst delay %.3f exceeds speedup 1's %.3f",
			rows[1].WorstDelayRatio, rows[0].WorstDelayRatio)
	}
	var buf bytes.Buffer
	PrintSwitchModels(&buf, rows)
	if !strings.Contains(buf.String(), "speedup") {
		t.Error("rendering incomplete")
	}
}

func TestAblationVBR(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	res, err := AblationVBR(11, 4, 8, 2, 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reserving the peak restores (or preserves) the guarantees; at
	// this tiny scale the delay tails are within noise of each other,
	// so only gross inversions fail (the full-scale run in
	// EXPERIMENTS.md shows the clear separation).
	if res.PeakReserved.WorstDelayRatio > res.MeanReserved.WorstDelayRatio*1.5+0.01 {
		t.Errorf("peak-reserved worst %.3f far exceeds mean-reserved %.3f",
			res.PeakReserved.WorstDelayRatio, res.MeanReserved.WorstDelayRatio)
	}
	if res.PeakReserved.DeadlineMetPercent < res.MeanReserved.DeadlineMetPercent {
		t.Errorf("peak-reserved deadline %.2f%% < mean-reserved %.2f%%",
			res.PeakReserved.DeadlineMetPercent, res.MeanReserved.DeadlineMetPercent)
	}
	var buf bytes.Buffer
	PrintVBR(&buf, res)
	if !strings.Contains(buf.String(), "VBR") {
		t.Error("rendering incomplete")
	}
}

// TestReconfigurationStudy checks each live run's accounting: one
// permanent failure of a non-cut link stops no connection outright,
// so every displaced connection is either re-admitted or stopped, and
// survival is 1 - stopped/admitted.
func TestReconfigurationStudy(t *testing.T) {
	res, err := Reconfiguration(8, 7, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweep.MADs == 0 || res.Forwarding.MADs == 0 || res.QoS.MADs == 0 {
		t.Errorf("bring-up costs incomplete: %+v", res)
	}
	if len(res.Links) == 0 {
		t.Fatal("no link failures run")
	}
	for _, l := range res.Links {
		if l.Admitted < 3 || int64(l.Stopped)+l.Readmitted != l.Displaced {
			t.Errorf("%s: admitted %d, displaced %d = readmitted %d + stopped %d does not add up",
				l.Link, l.Admitted, l.Displaced, l.Readmitted, l.Stopped)
		}
		if want := 1 - float64(l.Stopped)/float64(l.Admitted); l.Survival != want {
			t.Errorf("%s: survival %v, want %v", l.Link, l.Survival, want)
		}
	}
	if res.MeanSurvival < 0.5 {
		t.Errorf("mean survival %.2f unexpectedly low at moderate load", res.MeanSurvival)
	}
	var buf bytes.Buffer
	PrintReconfig(&buf, res)
	if !strings.Contains(buf.String(), "MADs") {
		t.Error("rendering incomplete")
	}
}

// TestEvaluateDeterministic: the whole paired evaluation is
// reproducible — identical parameters give identical Table 2 rows
// whether the two runs execute one after the other or on concurrent
// goroutines.
func TestEvaluateDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	a, err := Evaluate(EvaluationScenario(Tiny), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(EvaluationScenario(Tiny), 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Table2() != b.Table2() {
		t.Errorf("evaluations diverged:\n%+v\n%+v", a.Table2(), b.Table2())
	}
}

func TestSLBreakdown(t *testing.T) {
	run, err := loaded(EvaluationScenario(Tiny))
	if err != nil {
		t.Fatal(err)
	}
	rows := run.SLBreakdown()
	if len(rows) == 0 {
		t.Fatal("no SL breakdown rows")
	}
	total := 0
	for _, r := range rows {
		if r.Connections <= 0 || r.ReservedMbps <= 0 {
			t.Errorf("SL %d: empty row %+v", r.SL, r)
		}
		total += r.Connections
	}
	if total != len(run.Flows) {
		t.Errorf("breakdown covers %d connections, run has %d", total, len(run.Flows))
	}
	var buf bytes.Buffer
	PrintSLBreakdown(&buf, "test", rows)
	if !strings.Contains(buf.String(), "SL 0") {
		t.Error("rendering incomplete")
	}
}
