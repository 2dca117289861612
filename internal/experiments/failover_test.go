package experiments

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/runner"
)

// TestFailoverTinyConverges runs the tiny failover sweep and checks
// the invariants every point must satisfy beyond the run's own audits
// (which already error the point out on violation).
func TestFailoverTinyConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	res, err := failoverSweep(failoverScenario(Tiny), failoverSpecs(Tiny), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("want one point per topology class, got %d", len(res))
	}
	for _, r := range res {
		if r.Schedule == "" {
			t.Errorf("%s: no failure schedule recorded", r.Label)
		}
		if r.Control.RepairsCompleted < 2 {
			t.Errorf("%s: only %d repairs completed", r.Label, r.Control.RepairsCompleted)
		}
		if r.DetectedKeys == 0 {
			t.Errorf("%s: failures never detected", r.Label)
		}
		if r.RepairCDG.Channels == 0 {
			t.Errorf("%s: no post-repair CDG proof", r.Label)
		}
		if r.Injected != r.Delivered+r.Dropped+r.Lost {
			t.Errorf("%s: conservation hole: injected %d != delivered %d + dropped %d + lost %d",
				r.Label, r.Injected, r.Delivered, r.Dropped, r.Lost)
		}
		if r.Control.RepairTime == nil || r.Control.RepairTime.N == 0 {
			t.Errorf("%s: no time-to-repair observation", r.Label)
		}
	}
}

// TestFailoverWorkerIdentity pins the sweep's determinism contract:
// the JSON encoding is byte-identical at any worker count.
func TestFailoverWorkerIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	sc, specs := failoverScenario(Tiny), failoverSpecs(Tiny)
	serial, err := failoverSweep(sc, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := failoverSweep(sc, specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("sweep diverges across worker counts:\n1 worker: %s\n4 workers: %s", a, b)
	}
}

// TestFailoverRevivedPortHeals: a revived link whose other end sits on
// a crashed switch changes the dead set but not the classification.
// The port must still be healed (its active table carries the releases
// it skipped while dead), or the end audit finds it not converged.
// The grid is the tiny irregular point at 6 to 12 switches, each at the
// point seeds of ten base seeds.
func TestFailoverRevivedPortHeals(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	sc := failoverScenario(Tiny)
	for _, n := range []int{6, 8, 10, 12} {
		sc.Topology = irregular(n, 42)
		for s := int64(1); s <= 10; s++ {
			sc.Seed = runner.DeriveSeed(s, 0)
			if _, err := failoverRun(sc); err != nil {
				t.Errorf("%s base seed %d: %v", sc.Topology.Label(), s, err)
			}
		}
	}
}

// TestFailoverGivenScheduleReplays: a point given the schedule its own
// run drew, as Failures, reproduces that run field for field, on every
// tiny topology class.
func TestFailoverGivenScheduleReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	sc := failoverScenario(Tiny)
	for _, spec := range failoverSpecs(Tiny) {
		sc.Topology = spec
		drawn, err := failoverRun(sc)
		if err != nil {
			t.Fatal(err)
		}
		given := sc
		given.Failures = drawn.Schedule
		replayed, err := failoverRun(given)
		if err != nil {
			t.Fatalf("%s: %v", spec.Label(), err)
		}
		if !reflect.DeepEqual(replayed, drawn) {
			t.Errorf("%s: replaying %q gives\n%+v\nwant\n%+v", spec.Label(), drawn.Schedule, replayed, drawn)
		}
	}
}

// TestFailoverQuickConverges runs the CLI's default failover sweep,
// whose irregular point revives a link into a crashed switch.
func TestFailoverQuickConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	if _, err := failoverSweep(failoverScenario(Quick), failoverSpecs(Quick), 0); err != nil {
		t.Fatal(err)
	}
}
