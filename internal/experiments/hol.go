package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/topology"
)

// holResult is the outcome of one (spec, model, load) point.  Every
// field is a pure function of the point's parameters and seed, so
// equal inputs give byte-identical JSON at any worker count.
type holResult struct {
	Label    string  `json:"label"`
	Model    string  `json:"model"`
	Switches int     `json:"switches"`
	Hosts    int     `json:"hosts"`
	Seed     int64   `json:"seed"`
	Load     float64 `json:"load"`

	Attempts int `json:"attempts"`
	Admitted int `json:"admitted"`
	BEFlows  int `json:"beFlows"`

	DeliveredBPCNode float64 `json:"deliveredBPCNode"`
	SwitchUtil       float64 `json:"switchUtil"`

	// The distance-guarantee audit columns: under the paper's scheme
	// every admitted QoS packet should meet its deadline (delay ratio
	// ≤ 1); HOL blocking shows up here first as a rising worst ratio.
	MeanDelayRatio  float64 `json:"meanDelayRatio"`
	WorstDelayRatio float64 `json:"worstDelayRatio"`
	DeadlineMetPct  float64 `json:"deadlineMetPct"`
	DroppedPackets  int64   `json:"droppedPackets"`
	EndTimeBT       int64   `json:"endTimeBT"`

	// VOQ carries the input-queued scheduler's counters (scheduling
	// passes, matching sizes, HOL stalls); absent on the WRR rows.
	VOQ *metrics.VOQSnapshot `json:"voq,omitempty"`
}

// holPoint runs the point sc under its switch model.
func holPoint(sc Scenario) (holResult, error) {
	r, err := measured(sc)
	if err != nil {
		return holResult{}, err
	}
	net := r.Net
	_, _, dropped := net.Totals()
	res := holResult{
		Label:    sc.Topology.Label(),
		Model:    sc.Fabric.SwitchModel.String(),
		Switches: net.Topo.NumSwitches,
		Hosts:    net.Topo.NumHosts(),
		Seed:     sc.Seed,
		Load:     sc.Load,

		Attempts: r.Fill.Attempts,
		Admitted: len(r.Fill.Admitted),
		BEFlows:  len(r.BEFlows),

		DeliveredBPCNode: net.DeliveredBytesPerCyclePerNode(),
		SwitchUtil:       net.MeanSwitchPortUtilization(),

		DroppedPackets: dropped,
		EndTimeBT:      net.Now(),
		VOQ:            net.Metrics.Snapshot().VOQ,
	}
	if delay := mergedDelay(r.Flows); delay.Total() > 0 {
		res.MeanDelayRatio = delay.MeanRatio()
		res.WorstDelayRatio = delay.MaxRatio()
		res.DeadlineMetPct = delay.PercentMeetingDeadline()
	}
	return res, nil
}

// holSweep runs sc at every (spec, load, model) point of the grid: the
// paper's table fill-in algorithm assumes output-driven WRR switches,
// and this sweep audits whether its distance-based QoS guarantee
// survives on input-queued hardware.  The derived seed depends only on
// the (spec, load) cell, so the models of a cell offer identical
// traffic to identical fabrics and differ only in the switch scheduler:
// deadline satisfaction and worst delay/deadline ratio compare straight
// against the WRR row, with the VOQ counters (HOL stalls, matching
// sizes) explaining any erosion.  Results come back in input order
// regardless of worker count, so the sweep's JSON encoding is
// bit-identical at any parallelism.
func holSweep(sc Scenario, specs []topology.Spec, loads []float64, models []fabric.SwitchModel, workers int) ([]holResult, error) {
	var jobs []runner.Job[holResult]
	cell := 0 // (spec, load) index shared by the cell's models
	for _, spec := range specs {
		for _, load := range loads {
			for _, model := range models {
				jobs = append(jobs, runner.Job[holResult]{
					Name: fmt.Sprintf("%s-%s-load%g", spec.Label(), model, load),
					Seed: runner.DeriveSeed(sc.Seed, cell),
					Run: func(seed int64) (holResult, error) {
						p := sc.at(spec, load, seed)
						p.Fabric.SwitchModel = model
						return holPoint(p)
					},
				})
			}
			cell++
		}
	}
	return runner.Sweep(jobs, workers)
}

// printHOL renders a HOL sweep, one row per (spec, model, load) point,
// the models of a cell grouped so the WRR baseline reads directly
// above its input-queued challengers.
func printHOL(w io.Writer, res []holResult) {
	if len(res) == 0 {
		return
	}
	fmt.Fprintln(w, "HOL-blocking audit — WRR vs iSLIP vs MWM on identical traffic")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "topology\tmodel\tload\tadm/att\tdel BPC/node\tsw util\tdelay\tworst\tdeadline%\tHOL stalls\tmatch\tdrop")
	for _, r := range res {
		stalls, match := "-", "-"
		if r.VOQ != nil {
			stalls = fmt.Sprintf("%d", r.VOQ.HOLStalls)
			match = fmt.Sprintf("%.2f", r.VOQ.MeanMatchSize)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.2g\t%d/%d\t%.4f\t%.3f\t%.3f\t%.3f\t%.1f\t%s\t%s\t%d\n",
			r.Label, r.Model, r.Load, r.Admitted, r.Attempts,
			r.DeliveredBPCNode, r.SwitchUtil, r.MeanDelayRatio, r.WorstDelayRatio,
			r.DeadlineMetPct, stalls, match, r.DroppedPackets)
	}
	tw.Flush()
}
