package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/runner"
)

// sweepConfig is one configuration of the determinism sweep.
type sweepConfig struct {
	Switches int
	Seed     int64
}

// configDigest is everything a run reports, in comparable form: if any
// field differs between sequential and parallel execution, the runner
// has leaked state between configurations.
type configDigest struct {
	Config      sweepConfig
	Connections int
	Injected    int64
	Delivered   int64
	Dropped     int64
	DeadlineMet float64
	HostUtil    float64
	PerNode     float64
	Metrics     metrics.Snapshot
}

// digestJobs builds one job per configuration; each run carries its
// own metrics so the digest also proves counter determinism.
func digestJobs(configs []sweepConfig) []runner.Job[configDigest] {
	jobs := make([]runner.Job[configDigest], len(configs))
	for i, c := range configs {
		jobs[i] = runner.Job[configDigest]{
			Name: fmt.Sprintf("det-%dsw-seed%d", c.Switches, c.Seed),
			Seed: c.Seed,
			Run: func(int64) (configDigest, error) {
				sc := evaluationScenario(Tiny).seeded(c.Seed)
				sc.Topology.Switches = c.Switches
				sc.Metrics = true
				r, err := measured(sc)
				if err != nil {
					return configDigest{}, err
				}
				inj, del, drop := r.Net.Totals()
				// Aggregate in sorted SL order: float summation order must
				// be deterministic for the bit-identity check to mean
				// anything.
				bySL := r.delayBySL()
				met := 0.0
				ids := r.slIDs()
				for _, id := range ids {
					met += bySL[id].PercentMeetingDeadline()
				}
				if len(ids) > 0 {
					met /= float64(len(ids))
				}
				return configDigest{
					Config:      c,
					Connections: len(r.Flows),
					Injected:    inj,
					Delivered:   del,
					Dropped:     drop,
					DeadlineMet: met,
					HostUtil:    r.Net.MeanHostUtilization(),
					PerNode:     r.Net.DeliveredBytesPerCyclePerNode(),
					Metrics:     r.Net.Metrics.Snapshot(),
				}, nil
			},
		}
	}
	return jobs
}

// TestParallelRunnerDeterminism runs the same 16-config sweep
// sequentially (one worker) and with several worker counts, and
// requires bit-identical per-config results — stats, conservation
// totals and metrics counters alike.  This is the regression gate for
// the paper-scale parallel sweeps: parallelism must never change
// results.
func TestParallelRunnerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	var configs []sweepConfig
	for _, sw := range []int{2, 3} {
		for seed := int64(42); seed < 50; seed++ {
			configs = append(configs, sweepConfig{Switches: sw, Seed: seed})
		}
	}
	if len(configs) < 16 {
		t.Fatalf("sweep too small: %d configs", len(configs))
	}

	digest := func(workers int) []configDigest {
		out, err := runner.Sweep(digestJobs(configs), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}

	sequential := digest(1)
	for _, workers := range []int{2, 4, 8} {
		parallel := digest(workers)
		for i := range sequential {
			if !reflect.DeepEqual(sequential[i], parallel[i]) {
				t.Fatalf("workers=%d: config %v diverged from sequential run\nseq: %+v\npar: %+v",
					workers, configs[i], sequential[i], parallel[i])
			}
		}
	}
}

// TestScalingDeterministicAcrossWorkers covers the public sweep API:
// the scaling rows must not depend on the worker count.
func TestScalingDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	seq, err := scaling(evaluationScenario(Tiny), []int{2, 3, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := scaling(evaluationScenario(Tiny), []int{2, 3, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("Scaling diverged across worker counts:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestRunMetricsPopulated: an instrumented run reports consistent
// counters (picks happened, every pick visited at least one entry, VL
// traffic adds up to delivered+queued wire bytes at the hosts).
func TestRunMetricsPopulated(t *testing.T) {
	sc := evaluationScenario(Tiny)
	sc.Metrics = true
	sc.Trace = 32
	r, err := measured(sc)
	if err != nil {
		t.Fatal(err)
	}
	m := r.Net.Metrics
	if m == nil {
		t.Fatal("metrics not attached")
	}
	s := m.Snapshot()
	if s.Picks == 0 {
		t.Fatal("no arbitration picks counted")
	}
	if s.EntriesVisited < s.Picks {
		t.Errorf("entries visited %d < picks %d", s.EntriesVisited, s.Picks)
	}
	if s.MeanEntriesPerPick < 1 {
		t.Errorf("mean entries per pick %.2f < 1", s.MeanEntriesPerPick)
	}
	if len(s.PerVL) == 0 {
		t.Error("no per-VL traffic")
	}
	if s.Deliveries == 0 {
		t.Error("no measured deliveries")
	}
	if s.DeadlineMisses != 0 {
		t.Errorf("deadline misses %d at tiny scale (paper: all packets meet deadlines)", s.DeadlineMisses)
	}
	tb := r.Net.Engine.Trace
	if tb == nil || tb.Recorded() == 0 {
		t.Fatal("trace not recorded")
	}
	events := tb.Events()
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatalf("trace not time-ordered at %d: %+v then %+v", i, events[i-1], events[i])
		}
	}
}
