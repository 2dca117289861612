package experiments

import (
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/topology"
)

// planSpeedupFloor is the least wall-clock advantage the analytical
// model must keep over the equivalent scale simulation.  The gate was
// 100x while the simulated point took 2.5-3.2 s; the push-driven WRR
// candidate index brought the SIMULATOR down to 0.61-0.65 s with the
// model unchanged at 8-21 ms, so the same model now measures 30-80x on
// the 2-core reference host.  20x keeps the claim the planner rests on
// (a grid sweep in the time of one simulated point) with room for that
// host's noise; a model regression of 2x or more still trips it.
const planSpeedupFloor = 20

// planSpeedRuns is how many times each side of the speed check runs.
// The runs interleave, model then simulation, and each side is timed as
// its fastest run: a package running beside this one in the same go
// test invocation stretches the model's few milliseconds more than the
// simulation's tenths of a second, and the minimum is the run it
// stretched least.
const planSpeedRuns = 3

// TestPlanSpeedupOverSimulation is the acceptance-criterion speed
// check: the analytical model must evaluate a k=8 fat-tree grid point
// at least planSpeedupFloor times faster than the equivalent scale
// simulation.  The assertion only engages when the simulation is slow
// enough for the ratio to be meaningful on a noisy machine.
func TestPlanSpeedupOverSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating a k=8 fat tree is not short")
	}
	spec := topology.Spec{Class: topology.FatTree, K: 8}
	const load, seed = 1.0, 1

	var modelDur, simDur time.Duration
	for run := 0; run < planSpeedRuns; run++ {
		start := time.Now()
		res, err := plan.Evaluate(spec, load, seed, plan.Options{Payload: 512, MaxConsecutiveRejects: 20})
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); run == 0 || d < modelDur {
			modelDur = d
		}
		if res.Admitted == 0 {
			t.Fatal("model point admitted nothing")
		}

		start = time.Now()
		sim, err := scalePoint(scaleScenario(Tiny).at(spec, load, seed))
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); run == 0 || d < simDur {
			simDur = d
		}
		if sim.Admitted != res.Admitted {
			t.Fatalf("model admitted %d, simulator %d; the comparison is not like-for-like", res.Admitted, sim.Admitted)
		}
	}

	t.Logf("k=8 fat tree, load %g, fastest of %d runs each: model %s, simulation %s (%.0fx)",
		load, planSpeedRuns, modelDur, simDur, float64(simDur)/float64(modelDur))
	if simDur > 100*time.Millisecond && simDur < planSpeedupFloor*modelDur {
		t.Errorf("model took %s vs simulation %s; want at least %dx faster", modelDur, simDur, planSpeedupFloor)
	}
}

// TestPlanGridHeadroom: the plan's quick grid probes more headroom than
// its tiny one.
func TestPlanGridHeadroom(t *testing.T) {
	_, _, tiny := planGrid(Tiny)
	if _, _, quick := planGrid(Quick); quick <= tiny {
		t.Errorf("quick plan grid should probe more headroom than tiny (%d vs %d)", quick, tiny)
	}
}
