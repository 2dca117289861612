package experiments

import (
	"encoding/json"
	"testing"
)

// TestFaultsTinyRecoveryWork: the tiny fault run must actually exercise
// the hardened control plane — lose SMPs, retransmit, quarantine — and
// still terminate with every surviving port converged (the run itself
// errors otherwise).
func TestFaultsTinyRecoveryWork(t *testing.T) {
	res, err := runFaults(faultsScenario(Tiny))
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted == 0 || res.Released != res.Admitted {
		t.Errorf("admitted %d released %d, want equal and nonzero", res.Admitted, res.Released)
	}
	c := res.Control
	if c.SMPsDropped == 0 || c.Retransmits == 0 {
		t.Errorf("no loss/recovery work metered under 5%% drop: %+v", c)
	}
	if res.Injected.Queries == 0 {
		t.Error("injector was never consulted")
	}
}

// TestFaultsEveryTransactionTerminates is the property test: for any
// seed — and with it any injected fault sequence and flap schedule —
// the run ends with every transaction settled and active == shadow on
// all surviving hops.  runFaults returns an error on any violation, so
// the property is simply that the runs succeed.
func TestFaultsEveryTransactionTerminates(t *testing.T) {
	for _, seed := range []int64{2, 3, 5, 8, 13} {
		sc := faultsScenario(Tiny).seeded(seed)
		sc.Arrivals = 40
		sc.Faults.Drop = 0.08
		sc.Faults.Corrupt = 0.04
		if _, err := runFaults(sc); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestFaultsSweepBitIdenticalAcrossWorkers: the fault sweep's entire
// JSON encoding must not depend on how many workers ran it.
func TestFaultsSweepBitIdenticalAcrossWorkers(t *testing.T) {
	base := faultsScenario(Tiny)
	base.Arrivals = 40
	one, err := faultsSweep(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := faultsSweep(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(one)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(many)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("sweep JSON differs across worker counts:\n1 worker:  %s\n4 workers: %s", a, b)
	}
}

// TestFaultsFaultFreePointStillAudits: the sweep's control point (zero
// rates, zero flaps) runs the reliable machinery with nothing to
// recover from — no faults dealt, no retransmissions, no quarantines.
func TestFaultsFaultFreePointStillAudits(t *testing.T) {
	sc := faultsScenario(Tiny)
	sc.Arrivals = 40
	sc.Faults.Drop, sc.Faults.Duplicate, sc.Faults.Corrupt, sc.Faults.Reorder, sc.Flaps = 0, 0, 0, 0, 0
	res, err := runFaults(sc)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Control
	if c.SMPsDropped != 0 || c.Retransmits != 0 || c.QuarantinedHops != 0 || c.DeadlineAborts != 0 {
		t.Errorf("fault-free run metered recovery work: %+v", c)
	}
	if res.RejectedDown != 0 || res.QuarantinedAtEnd != 0 {
		t.Errorf("fault-free run quarantined hops: %+v", res)
	}
}
