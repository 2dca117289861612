package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/runner"
	"repro/internal/sl"
	"repro/internal/traffic"
)

// prioritySplitResult compares the paper's scheme (all guaranteed
// traffic in the high-priority table) with the older Pelissier-style
// split (DB traffic in the low-priority table) under a set of
// overshooting DBTS sources.  Goodput is delivered/expected packets of
// the well-behaved DB victim connection.
type prioritySplitResult struct {
	NewSchemeGoodput float64
	OldSchemeGoodput float64
}

// priorityScenario is the priority-split ablation's base at every
// scale: a 2-switch irregular fabric with small packets, measured for
// 80 interarrival times of the victim after a warm-up of 4.
func priorityScenario(Scale) Scenario {
	return Scenario{Seed: 42, Topology: irregular(2, 42), Fabric: fabric.DefaultConfig(0, smallPayload, 0), WarmupIATs: 4, WindowIATs: 80}
}

// prioritySplitScenario runs the common scenario on sc's fabric: a
// well-behaved DB connection (SL 8, host 1 -> host 7) sharing the
// network with three DBTS sources (SL 5) that reserved 20 Mbps each but
// transmit far above it, measured on the victim (execute).  oldScheme
// selects where the DB reservation lives.
func prioritySplitScenario(sc Scenario, oldScheme bool) (float64, error) {
	r, err := build(sc)
	if err != nil {
		return 0, err
	}
	net := r.Net
	victimReq := traffic.Request{Src: 1, Dst: 7, Level: sl.DefaultLevels[8], Mbps: 12}

	var victim *fabric.Flow
	if oldScheme {
		// Old scheme: the DB reservation goes to the low-priority
		// tables along the path; the flow still travels on SL 8's VL.
		ports := net.Adm.Ports()
		low := baseline.NewLowTables(net.Routes, ports.Host, ports.Switch)
		if err := low.AdmitDB(victimReq, net.Mapping.VLFor(victimReq.Level.SL)); err != nil {
			return 0, err
		}
		victim = net.AddBestEffort(traffic.BestEffort{
			Src: victimReq.Src, Dst: victimReq.Dst,
			SL: victimReq.Level.SL, Mbps: victimReq.Mbps,
		})
	} else {
		conn, err := net.Adm.Admit(victimReq)
		if err != nil {
			return 0, err
		}
		victim = net.AddConnection(conn)
	}

	// Three aggressors on other hosts of switch 0, all crossing the
	// same inter-switch link toward host 7's switch, each reserving a
	// modest 20 Mbps but transmitting 1800 Mbps.
	for _, src := range []int{0, 2, 3} {
		req := traffic.Request{Src: src, Dst: 6, Level: sl.DefaultLevels[5], Mbps: 20}
		conn, err := net.Adm.Admit(req)
		if err != nil {
			return 0, err
		}
		net.AddMisbehavingConnection(conn, 1800)
	}

	if err := r.execute([]*fabric.Flow{victim}); err != nil {
		return 0, err
	}
	return float64(victim.Delivered) / float64(sc.WindowIATs), nil
}

// ablationPrioritySplit runs the two schemes on sc, each at sc's seed,
// on workers goroutines and reports both goodputs over the WindowIATs
// window.  The paper's scheme keeps the victim's goodput near 1.
func ablationPrioritySplit(sc Scenario, workers int) (prioritySplitResult, error) {
	goodputs, err := sameSeed(sc, []string{"priority-split-new", "priority-split-old"}, workers,
		func(i int, sc Scenario) (float64, error) { return prioritySplitScenario(sc, i == 1) })
	if err != nil {
		return prioritySplitResult{}, err
	}
	return prioritySplitResult{NewSchemeGoodput: goodputs[0], OldSchemeGoodput: goodputs[1]}, nil
}

// printPrioritySplit renders the ablation result.
func printPrioritySplit(w io.Writer, r prioritySplitResult) {
	fmt.Fprintln(w, "Ablation — DB victim goodput under overshooting DBTS sources")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "new scheme (DB in high-priority table)\t%.3f\n", r.NewSchemeGoodput)
	fmt.Fprintf(tw, "old scheme (DB in low-priority table)\t%.3f\n", r.OldSchemeGoodput)
	tw.Flush()
}

// fillPolicyResult aggregates the fill-policy ablation over many
// request traces: how many requests fit before the first rejection,
// how often the table stays serviceable, and how many requests were
// rejected despite sufficient free slots.
type fillPolicyResult struct {
	Policy              string
	MeanFillUntilReject float64
	Serviceability      float64 // mean fraction of steps
	FalseRejects        int
}

// ablationFillPolicies compares the bit-reversal policy with the naive
// natural-order policy over the given number of random traces, one
// job per policy on workers goroutines.
func ablationFillPolicies(traces int, seed int64, workers int) ([]fillPolicyResult, error) {
	policies := []core.Policy{core.BitReversal, core.NaturalOrder}
	jobs := make([]runner.Job[fillPolicyResult], len(policies))
	for pi, pol := range policies {
		jobs[pi] = runner.Job[fillPolicyResult]{
			Name: "fill-" + pol.Name,
			Seed: seed,
			Run: func(int64) (fillPolicyResult, error) {
				r := fillPolicyResult{Policy: pol.Name}
				sumFill, sumServ := 0.0, 0.0
				for i := 0; i < traces; i++ {
					s := seed + int64(i)
					sumFill += float64(baseline.FillUntilReject(s, pol))
					res := baseline.Replay(baseline.RandomTrace(300, s), pol)
					sumServ += res.ServiceabilityRatio()
					r.FalseRejects += res.FalseRejects
				}
				r.MeanFillUntilReject = sumFill / float64(traces)
				r.Serviceability = sumServ / float64(traces)
				return r, nil
			},
		}
	}
	return runner.Sweep(jobs, workers)
}

// printFillPolicies renders the fill-policy ablation.
func printFillPolicies(w io.Writer, rows []fillPolicyResult) {
	fmt.Fprintln(w, "Ablation — table fill-in policies")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tmean fills before 1st reject\tserviceable steps\tfalse rejects")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.4f\t%d\n", r.Policy, r.MeanFillUntilReject, r.Serviceability, r.FalseRejects)
	}
	tw.Flush()
}
