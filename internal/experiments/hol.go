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

// HOLParams sizes the head-of-line-blocking experiment: the paper's
// table fill-in algorithm assumes output-driven WRR switches, and this
// sweep audits whether its distance-based QoS guarantee survives on
// input-queued hardware.  Every (spec, load) point runs once per
// switch model — the WRR baseline, iSLIP, and the MWM oracle — with
// the SAME derived seed, so the three rows of a point offer identical
// traffic to identical fabrics and differ only in the switch
// scheduler.  The audit is then a straight column comparison: deadline
// satisfaction and worst delay/deadline ratio against the WRR row,
// with the VOQ counters (HOL stalls, matching sizes) explaining any
// erosion.
type HOLParams struct {
	ScaleParams
	Models []fabric.SwitchModel

	// ISLIPIters is the iteration depth of the iSLIP points; zero
	// selects fabric.DefaultISLIPIters.
	ISLIPIters int
}

// HOLTiny is the unit-test and golden-file scale: the scale
// experiment's tiny grid under all three switch models.
func HOLTiny() HOLParams {
	return HOLParams{
		ScaleParams: ScaleTiny(),
		Models: []fabric.SwitchModel{
			fabric.ModelWRR, fabric.ModelVOQISLIP, fabric.ModelVOQMWM,
		},
	}
}

// HOLQuick is the CLI default: the scale experiment's mid-size
// instances of each class.
func HOLQuick() HOLParams {
	p := HOLTiny()
	p.ScaleParams = ScaleQuick()
	return p
}

// HOLResult is the outcome of one (spec, model, load) point.  Every
// field is a pure function of the point's parameters and seed, so
// equal inputs give byte-identical JSON at any worker count.
type HOLResult struct {
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

// HOLPoint runs one (spec, model, load) point.
func HOLPoint(p HOLParams, spec topology.Spec, model fabric.SwitchModel, load float64, seed int64) (HOLResult, error) {
	pt, err := runLoadedPoint(p, model, spec, load, seed)
	if err != nil {
		return HOLResult{}, err
	}
	net := pt.net
	res := HOLResult{
		Label:    spec.Label(),
		Model:    model.String(),
		Switches: net.Topo.NumSwitches,
		Hosts:    net.Topo.NumHosts(),
		Seed:     seed,
		Load:     load,

		Attempts: pt.fill.Attempts,
		Admitted: len(pt.fill.Admitted),
		BEFlows:  pt.beFlows,

		DeliveredBPCNode: net.DeliveredBytesPerCyclePerNode(),
		SwitchUtil:       net.MeanSwitchPortUtilization(),

		DroppedPackets: pt.dropped,
		EndTimeBT:      net.Now(),
		VOQ:            pt.metrics.Snapshot().VOQ,
	}
	if pt.delay.Total() > 0 {
		res.MeanDelayRatio = pt.delay.MeanRatio()
		res.WorstDelayRatio = pt.delay.MaxRatio()
		res.DeadlineMetPct = pt.delay.PercentMeetingDeadline()
	}
	return res, nil
}

// HOLSweep runs every (spec, load, model) point of the grid.  The
// derived seed depends only on the (spec, load) cell, so the models of
// a cell see identical traffic; results come back in input order
// regardless of worker count, so the sweep's JSON encoding is
// bit-identical at any parallelism.
func HOLSweep(p HOLParams, workers int) ([]HOLResult, error) {
	type point struct {
		spec  topology.Spec
		model fabric.SwitchModel
		load  float64
		cell  int // (spec, load) index shared by the cell's models
	}
	var grid []point
	cell := 0
	for _, spec := range p.Specs {
		for _, load := range p.Loads {
			for _, model := range p.Models {
				grid = append(grid, point{spec, model, load, cell})
			}
			cell++
		}
	}
	jobs := make([]runner.Job[HOLResult], len(grid))
	for i := range jobs {
		pt := grid[i]
		jobs[i] = runner.Job[HOLResult]{
			Name: fmt.Sprintf("%s-%s-load%g", pt.spec.Label(), pt.model, pt.load),
			Seed: runner.DeriveSeed(p.Seed, pt.cell),
			Run: func(seed int64) (HOLResult, error) {
				return HOLPoint(p, pt.spec, pt.model, pt.load, seed)
			},
		}
	}
	return runner.Sweep(jobs, workers)
}

// PrintHOL renders a HOL sweep, one row per (spec, model, load) point,
// the models of a cell grouped so the WRR baseline reads directly
// above its input-queued challengers.
func PrintHOL(w io.Writer, res []HOLResult) {
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
