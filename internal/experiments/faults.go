package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/subnet"
	"repro/internal/topology"
)

// FaultParams sizes the fault-injection experiment: the churn workload
// runs unchanged, but the management network loses, duplicates,
// corrupts and reorders SMPs, and a flap schedule takes links down
// while connections arrive and leave.  The hardened control plane —
// retransmission, transaction deadlines, the self-healing audit — must
// keep every guarantee the fault-free runs prove: admitted connections
// keep their distance placement, every transaction terminates (commit
// or byte-identical rollback), and the whole run is bit-identical
// across worker counts.
type FaultParams struct {
	Churn ChurnParams

	// Per-SMP fault probabilities (see faults.Config).
	Drop         float64
	Duplicate    float64
	Corrupt      float64
	Reorder      float64
	MaxReorderBT int64

	// Flaps is the number of link-down windows drawn from the seed;
	// each takes one random link down for an exponentially distributed
	// time with mean MeanFlapDownBT.
	Flaps          int
	MeanFlapDownBT int64

	Retry subnet.RetryProfile
	Audit subnet.AuditConfig
}

// FaultsTiny is the unit-test and golden scale: the churn-tiny workload
// under moderate loss, occasional corruption and a few short flaps.
func FaultsTiny() FaultParams {
	c := ChurnTiny()
	c.Seed = 1
	c.Retry.DeadlineBT = 1 << 20 // cap total admission retry time too
	return FaultParams{
		Churn:          c,
		Drop:           0.05,
		Duplicate:      0.05,
		Corrupt:        0.02,
		Reorder:        0.05,
		MaxReorderBT:   256,
		Flaps:          3,
		MeanFlapDownBT: 16384,
		Retry:          subnet.DefaultRetryProfile(),
		Audit:          subnet.DefaultAuditConfig(),
	}
}

// FaultsQuick is the CLI default: the churn-quick workload under the
// same fault model.
func FaultsQuick() FaultParams {
	p := FaultsTiny()
	p.Churn.Switches = 4
	p.Churn.Arrivals = 240
	p.Flaps = 6
	return p
}

// FaultsResult is the outcome of one faulty churn run.  Like
// ChurnResult it is a pure function of the parameters, so equal params
// give byte-identical JSON at any parallelism.
type FaultsResult struct {
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

	// End-state audit: transactions or audit rounds left open and
	// surviving ports with active != shadow are zero in every result a
	// run returns (a nonzero count is the run's error); QuarantinedAtEnd
	// counts ports the control plane deliberately took out of service.
	UnterminatedTxns int `json:"unterminatedTxns"`
	DirtySurvivors   int `json:"dirtySurvivors"`
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

// drawFlapSchedule pre-draws the link-down windows from the seed: the
// flapped links, start times across the arrival span, and hold times
// are all fixed before the simulation starts, like the churn arrivals.
func drawFlapSchedule(p FaultParams, topo *topology.Topology, inj *faults.Injector, span int64) {
	if p.Flaps < 1 {
		return
	}
	rng := rand.New(rand.NewSource(p.Churn.Seed + 2))
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
	for i := 0; i < p.Flaps; i++ {
		link := links[rng.Intn(len(links))]
		from := 1 + rng.Int63n(span)
		down := 1 + int64(rng.ExpFloat64()*float64(p.MeanFlapDownBT))
		inj.AddLinkDown(link, from, from+down)
	}
}

// Faults runs one fault-injection experiment: the churn lifecycles of
// p.Churn on the lifecycle driver (see runLifecycles) with p's fault
// rig.  The same audits as Churn's run after every admission outcome
// and release, and at the end every transaction and audit round must
// have terminated and every hop the control plane did not deliberately
// quarantine must have converged (active == shadow).
func Faults(p FaultParams) (FaultsResult, error) {
	lc, err := runLifecycles(p.Churn, &p)
	if err != nil {
		return FaultsResult{}, err
	}
	return FaultsResult{
		Switches: lc.Switches, Hosts: lc.Hosts, Seed: lc.Seed,
		Drop: p.Drop, Corrupt: p.Corrupt, Flaps: p.Flaps,
		Offered: lc.Offered, Admitted: lc.Admitted, Released: lc.Released,
		RejectedCapacity: lc.RejectedCapacity, RejectedBusy: lc.RejectedBusy, RejectedDown: lc.rejectedDown,
		Control: lc.net.Metrics.Control, Reconfig: lc.Reconfig, Injected: lc.inj.Stats(),
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

// FaultsSweep runs the experiment across the fault grid (drop and
// corruption rates, flap counts), one job per point.  Results come back
// in input order regardless of worker count, so the sweep's JSON is
// bit-identical at any parallelism.
func FaultsSweep(base FaultParams, workers int) ([]FaultsResult, error) {
	jobs := make([]runner.Job[FaultsResult], len(faultGrid))
	for i := range jobs {
		pt := faultGrid[i]
		jobs[i] = runner.Job[FaultsResult]{
			Name: fmt.Sprintf("faults-d%g-c%g-f%d", pt.drop, pt.corrupt, pt.flaps),
			Seed: base.Churn.Seed,
			Run: func(seed int64) (FaultsResult, error) {
				p := base
				p.Churn.Seed = seed
				p.Drop = pt.drop
				p.Corrupt = pt.corrupt
				p.Flaps = pt.flaps
				p.Duplicate *= pt.scale
				p.Reorder *= pt.scale
				return Faults(p)
			},
		}
	}
	return runner.Sweep(jobs, workers)
}

// PrintFaults renders a fault sweep as a table, one row per fault
// point.
func PrintFaults(w io.Writer, res []FaultsResult) {
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
