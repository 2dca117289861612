package experiments

import (
	"encoding/json"
	"testing"

	"repro/internal/runner"
)

// TestChurnRuns is the smoke test: the tiny churn scenario must
// complete with every invariant intact, admit a useful fraction of
// the offered connections, release everything it admitted, and spend
// real control-plane work doing so.
func TestChurnRuns(t *testing.T) {
	res, err := runChurn(churnScenario(Tiny).seeded(42))
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted == 0 {
		t.Fatal("churn admitted nothing")
	}
	if res.Admitted+res.RejectedCapacity+res.RejectedBusy != res.Offered {
		t.Errorf("outcomes %d+%d+%d != offered %d",
			res.Admitted, res.RejectedCapacity, res.RejectedBusy, res.Offered)
	}
	if res.Released != res.Admitted {
		t.Errorf("released %d != admitted %d", res.Released, res.Admitted)
	}
	if res.ProgramMADs == 0 || res.Reconfig.Swaps == 0 {
		t.Errorf("no in-band programming happened: %+v", res.Reconfig)
	}
	if res.Reconfig.TornAborts != 0 {
		t.Errorf("%d torn-table aborts; per-port transactions should serialize", res.Reconfig.TornAborts)
	}
	if res.EndTimeBT <= 0 {
		t.Error("simulation did not advance")
	}
}

// TestChurnTerminates: churn and fault runs on the irregular 8-switch
// fabric at seeds that once never finished.  A packet generated while
// its lane's table program was in flight found no entry, the port went
// idle, and nothing re-armed it when the table swapped, so the release
// waited for that packet forever.  A run that hangs again fails with
// the stuck flows named instead of growing without bound.  Each run
// also goes on two parallel shards, where the swap re-arms the port
// from the control lane at a barrier.
func TestChurnTerminates(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, seed := range []int64{runner.DeriveSeed(5, 0), runner.DeriveSeed(8, 0)} {
			sc := churnScenario(Quick).seeded(seed)
			sc.Topology.Switches, sc.Fabric.Shards = 8, shards
			res, err := runChurn(sc)
			if err != nil {
				t.Fatalf("churn seed %d shards %d: %v", seed, shards, err)
			}
			if res.Released != res.Admitted {
				t.Errorf("churn seed %d shards %d: released %d != admitted %d", seed, shards, res.Released, res.Admitted)
			}
		}
		for _, seed := range []int64{3, 4} {
			sc := faultsScenario(Quick).seeded(seed)
			sc.Topology.Switches, sc.Fabric.Shards = 8, shards
			if _, err := runFaults(sc); err != nil {
				t.Fatalf("faults seed %d shards %d: %v", seed, shards, err)
			}
		}
	}
}

// TestChurnSweepDeterminism is the regression gate for the churn
// pipeline: the sweep's JSON must be bit-identical whether it runs on
// one worker or many.  Everything downstream (goldens, paper tables)
// relies on this.
func TestChurnSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed churn sweep")
	}
	base := churnScenario(Tiny)
	const seeds = 3

	encode := func(workers int) []byte {
		t.Helper()
		res, err := churnSweep(base, seeds, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	want := encode(1)
	for _, workers := range []int{2, 4, 8} {
		if got := encode(workers); string(got) != string(want) {
			t.Errorf("churn sweep JSON differs at workers=%d\n 1: %s\n%2d: %s",
				workers, want, workers, got)
		}
	}
}

// TestNilInjectorIsPerfect: a nil fault injector is the perfect one,
// not another delivery mode.  Churn runs with no injector and with an
// injector whose every rate is zero — attached to the programmer, the
// fabric and an auditor — give identical results at every seed.
func TestNilInjectorIsPerfect(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		sc := churnScenario(Tiny).seeded(seed)
		want, err := runChurn(sc)
		if err != nil {
			t.Fatal(err)
		}
		sc.SMPFaults = true // Faults' rates are all zero
		got, err := runLifecycles(sc)
		if err != nil {
			t.Fatal(err)
		}
		if q := got.net.Faults.Stats().Queries; q < int64(2*want.ProgramMADs) {
			t.Errorf("seed %d: the injector dealt %d fates for %d SMPs and their responses", seed, q, want.ProgramMADs)
		}
		if got.churnResult != want {
			t.Errorf("seed %d: a zero-rate injector changed the run\n got %+v\nwant %+v", seed, got.churnResult, want)
		}
	}
}
