package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// faultsScenario is the fault-injection experiment's base at scale s:
// the churn workload of churnScenario(s) runs unchanged, but the
// management network loses, duplicates, corrupts and reorders SMPs, and
// a flap schedule takes links down while connections arrive and leave.
// The hardened control plane — retransmission, transaction deadlines,
// the self-healing audit — must keep every guarantee the fault-free
// runs prove: admitted connections keep their distance placement,
// every transaction terminates (commit or byte-identical rollback), and
// the whole run is bit-identical across worker counts.  Tiny runs
// moderate loss, occasional corruption and a few short flaps.
func faultsScenario(s Scale) Scenario {
	sc := churnScenario(s).seeded(1)
	sc.Retry.DeadlineBT = 1 << 20 // cap total admission retry time too
	sc.SMPFaults = true
	sc.Faults = faults.Config{Drop: 0.05, Duplicate: 0.05, Corrupt: 0.02, Reorder: 0.05, MaxReorderBT: 256}
	sc.Flaps, sc.MeanFlapDownBT = 3, 16384
	if s != Tiny {
		sc.Flaps = 6
	}
	return sc
}

// faultsResult is the outcome of one faulty churn run.  Like
// churnResult it is a pure function of the parameters, so equal params
// give byte-identical JSON at any parallelism.
type faultsResult struct {
	Switches int   `json:"switches"`
	Hosts    int   `json:"hosts"`
	Seed     int64 `json:"seed"`

	Drop    float64 `json:"drop"`
	Corrupt float64 `json:"corrupt"`
	Flaps   int     `json:"flaps"`

	Offered          int `json:"offered"`
	Admitted         int `json:"admitted"`
	RejectedCapacity int `json:"rejectedCapacity"`
	RejectedBusy     int `json:"rejectedBusy"`
	RejectedDown     int `json:"rejectedDown"`
	Released         int `json:"released"`

	// Control-plane recovery work under injected faults.
	Control  metrics.ControlCounters `json:"control"`
	Reconfig core.ReconfigStats      `json:"reconfig"`

	// Injected-fault tallies as the injector dealt them.
	Injected faults.Stats `json:"injected"`

	// QuarantinedAtEnd counts ports the control plane deliberately took
	// out of service.  A transaction or audit round left open, or a
	// surviving port with active != shadow, is the run's error instead.
	QuarantinedAtEnd int `json:"quarantinedAtEnd"`

	MeanVLRateCoV float64 `json:"meanVLRateCoV"`
	MaxVLRateCoV  float64 `json:"maxVLRateCoV"`

	EndTimeBT int64 `json:"endTimeBT"`

	// Parallel-run provenance, set only when the shards actually ran
	// concurrently (never in single-engine or deterministic modes, so
	// golden outputs and the cross-shard-count determinism regression
	// keep their byte shape).
	Parallel bool   `json:"parallel,omitempty"`
	Windows  uint64 `json:"windows,omitempty"`
}

// drawFlapSchedule pre-draws sc's link-down windows from the seed: the
// flapped links, start times across the arrival span, and hold times
// are all fixed before the simulation starts, like the churn arrivals.
func drawFlapSchedule(sc Scenario, topo *topology.Topology, inj *faults.Injector, span int64) {
	if sc.Flaps < 1 {
		return
	}
	rng := rand.New(rand.NewSource(sc.Seed + 2))
	var links []int32
	for h := 0; h < topo.NumHosts(); h++ {
		links = append(links, faults.HostKey(h))
	}
	for s := 0; s < topo.NumSwitches; s++ {
		for q := 0; q < topo.Ports(); q++ {
			if topo.Wired(s, q) {
				links = append(links, faults.SwitchPortKey(s, q))
			}
		}
	}
	for i := 0; i < sc.Flaps; i++ {
		link := links[rng.Intn(len(links))]
		from := 1 + rng.Int63n(span)
		down := 1 + int64(rng.ExpFloat64()*float64(sc.MeanFlapDownBT))
		inj.AddLinkDown(link, from, from+down)
	}
}

// runFaults runs one fault-injection experiment: the churn lifecycles
// of sc on the lifecycle driver (see runLifecycles) with sc's fault
// rig.  The same audits as runChurn's run after every admission outcome
// and release, and at the end every transaction and audit round must
// have terminated and every hop the control plane did not deliberately
// quarantine must have converged (active == shadow).
func runFaults(sc Scenario) (faultsResult, error) {
	lc, err := runLifecycles(sc)
	if err != nil {
		return faultsResult{}, err
	}
	return faultsResult{
		Switches: lc.Switches, Hosts: lc.Hosts, Seed: lc.Seed,
		Drop: sc.Faults.Drop, Corrupt: sc.Faults.Corrupt, Flaps: sc.Flaps,
		Offered: lc.Offered, Admitted: lc.Admitted, Released: lc.Released,
		RejectedCapacity: lc.RejectedCapacity, RejectedBusy: lc.RejectedBusy, RejectedDown: lc.rejectedDown,
		Control: lc.net.Metrics.Control, Reconfig: lc.Reconfig, Injected: lc.net.Faults.Stats(),
		QuarantinedAtEnd: lc.quarantined, EndTimeBT: lc.EndTimeBT,
		MeanVLRateCoV: lc.MeanVLRateCoV, MaxVLRateCoV: lc.MaxVLRateCoV,
		Parallel: lc.Parallel, Windows: lc.Windows,
	}, nil
}

// faultPoint is one sweep coordinate of the fault grid; scale
// multiplies the base parameters' duplicate and reorder rates so the
// control point is genuinely fault-free.
type faultPoint struct {
	drop, corrupt float64
	flaps         int
	scale         float64
}

// faultGrid is the default sweep: fault-free control point, moderate
// loss, and heavy loss with frequent flaps.
var faultGrid = []faultPoint{
	{0, 0, 0, 0},
	{0.02, 0.01, 2, 1},
	{0.10, 0.04, 5, 1},
}

// faultsSweep runs sc across the fault grid (drop and corruption
// rates, flap counts), one job per point, every point at sc's seed,
// which also wires the fabric.  Results come back in input order
// regardless of worker count, so the sweep's JSON is bit-identical at
// any parallelism.
func faultsSweep(sc Scenario, workers int) ([]faultsResult, error) {
	names := make([]string, len(faultGrid))
	for i, pt := range faultGrid {
		names[i] = fmt.Sprintf("faults-d%g-c%g-f%d", pt.drop, pt.corrupt, pt.flaps)
	}
	return sameSeed(sc, names, workers, func(i int, sc Scenario) (faultsResult, error) {
		pt := faultGrid[i]
		sc.Faults.Drop, sc.Faults.Corrupt, sc.Flaps = pt.drop, pt.corrupt, pt.flaps
		sc.Faults.Duplicate *= pt.scale
		sc.Faults.Reorder *= pt.scale
		return runFaults(sc)
	})
}

// printFaults renders a fault sweep as a table, one row per fault
// point.
func printFaults(w io.Writer, res []faultsResult) {
	if len(res) == 0 {
		return
	}
	fmt.Fprintf(w, "Control plane under injected faults (%d switches, %d hosts, seed %d)\n",
		res[0].Switches, res[0].Hosts, res[0].Seed)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "drop\tcorrupt\tflaps\tadmit/offer\tdown\tdropSMP\tretx\tdeadl\taband\taudits\theal\tquar\tVL CoV")
	for _, r := range res {
		fmt.Fprintf(tw, "%.2f\t%.2f\t%d\t%d/%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.3f\n",
			r.Drop, r.Corrupt, r.Flaps, r.Admitted, r.Offered, r.RejectedDown,
			r.Control.SMPsDropped, r.Control.Retransmits, r.Control.DeadlineAborts,
			r.Control.Abandoned, r.Control.AuditRounds, r.Control.AuditRecoveries,
			r.QuarantinedAtEnd, r.MeanVLRateCoV)
	}
	tw.Flush()
}
