package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/runner"
)

// ChurnScenario is the connection-churn experiment's base at scale s:
// connections arrive with exponentially distributed gaps, hold their
// reservation for an exponentially distributed time, and leave — all
// while the fabric keeps forwarding traffic and every table change
// travels in-band as SMPs.  This exercises the control/data-plane
// split end to end: two-phase admission, versioned table swaps at
// packet boundaries, retry-and-backoff on busy hops.  The control
// plane runs as typed events on the fabric's control lane, so it works
// at any shard count.  Tiny is a 2-switch fabric with enough overlap
// between arrivals and in-flight table programs to make retries and
// chained reprogramming happen; above it, a 4-switch fabric under
// sustained churn.  The base names no wiring seed: ChurnSweep wires run
// i from runner.DeriveSeed(Seed, i).
func ChurnScenario(s Scale) Scenario {
	sc := Scenario{
		Seed: 42, Topology: irregular(2, 0), Fabric: fabric.DefaultConfig(0, 512, 0),
		Inband: true, Arrivals: 80, MeanGapBT: 2048, MeanHoldBT: 65536, SampleBT: 8192,
		Retry: admission.DefaultRetryPolicy(), Metrics: true,
	}
	if s != Tiny {
		sc.Topology.Switches, sc.Arrivals = 4, 240
	}
	return sc
}

// ChurnResult is the outcome of one churn run.  Every field is
// computed on the simulated clock from the run's seed, so equal
// parameters give byte-identical JSON regardless of host or worker
// count.
type ChurnResult struct {
	Switches int   `json:"switches"`
	Hosts    int   `json:"hosts"`
	Seed     int64 `json:"seed"`

	Offered          int `json:"offered"`
	Admitted         int `json:"admitted"`
	RejectedCapacity int `json:"rejectedCapacity"`
	RejectedBusy     int `json:"rejectedBusy"`
	Released         int `json:"released"`

	// Admission latency: arrival to final Admit outcome.  Nonzero only
	// when a busy hop forced backoff, so it measures control-plane
	// contention directly.
	MeanAdmitLatencyBT float64 `json:"meanAdmitLatencyBT"`
	MaxAdmitLatencyBT  int64   `json:"maxAdmitLatencyBT"`

	// Control-plane work: defragmentation moves across all port
	// allocators, SMPs spent programming deltas, and the ports'
	// reconfiguration counters.
	TableMoves    int                `json:"tableMoves"`
	ProgramMADs   int                `json:"programMADs"`
	ProgramTimeBT int64              `json:"programTimeBT"`
	Reconfig      core.ReconfigStats `json:"reconfig"`

	// Bandwidth stability: coefficient of variation of the per-window
	// scheduled byte rate, per data VL, averaged (and maxed) over VLs
	// that carried traffic.  Lower is steadier service under churn.
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

// runChurn runs one churn experiment on the lifecycle driver (see
// runLifecycles).  Any audit violation, and any lifecycle that does not
// resolve, aborts the run with an error.
func runChurn(sc Scenario) (ChurnResult, error) {
	lc, err := runLifecycles(sc)
	if err != nil {
		return ChurnResult{}, err
	}
	return lc.ChurnResult, nil
}

// ChurnSweep runs sc over derived seeds, each wiring its own fabric.
// Results come back in input order regardless of worker count, so the
// sweep's JSON encoding is bit-identical at any parallelism.  sc names
// no wiring seed, since no run would use it.
func ChurnSweep(sc Scenario, seeds, workers int) ([]ChurnResult, error) {
	if sc.Topology.Seed != 0 {
		return nil, refuse("Topology.Seed", "the sweep wires run i from runner.DeriveSeed(Seed, i)")
	}
	jobs := make([]runner.Job[ChurnResult], seeds)
	for i := range jobs {
		jobs[i] = runner.Job[ChurnResult]{
			Name: fmt.Sprintf("churn-%02d", i),
			Seed: runner.DeriveSeed(sc.Seed, i),
			Run: func(seed int64) (ChurnResult, error) {
				return runChurn(sc.seeded(seed))
			},
		}
	}
	return runner.Sweep(jobs, workers)
}

// PrintChurn renders a churn sweep as a table, one row per seed.
func PrintChurn(w io.Writer, res []ChurnResult) {
	if len(res) == 0 {
		return
	}
	fmt.Fprintf(w, "Connection churn with in-band table reprogramming (%d switches, %d hosts)\n",
		res[0].Switches, res[0].Hosts)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "seed\tadmit/offer\tbusy\tadmit lat mean/max BT\tswaps\ttorn\tstale\tmoves\tMADs\tVL CoV")
	for _, r := range res {
		fmt.Fprintf(tw, "%d\t%d/%d\t%d\t%.0f/%d\t%d\t%d\t%d\t%d\t%d\t%.3f\n",
			r.Seed, r.Admitted, r.Offered, r.RejectedBusy,
			r.MeanAdmitLatencyBT, r.MaxAdmitLatencyBT,
			r.Reconfig.Swaps, r.Reconfig.TornAborts, r.Reconfig.StalePicks,
			r.TableMoves, r.ProgramMADs, r.MeanVLRateCoV)
	}
	tw.Flush()
}
