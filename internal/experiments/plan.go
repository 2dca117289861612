package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/plan"
	"repro/internal/topology"
)

// planGrid is the capacity-planning experiment's axis at scale s: the
// scale experiment's grid plus a heavy load the model must call
// saturated, and the ceiling of the headroom bisection, which answers
// "how many more flows at one service level does each point admit?".
func planGrid(s Scale) (specs []topology.Spec, loads []float64, headroomMax int) {
	specs, loads = scaleGrid(s)
	headroomMax = 128
	if s != Tiny {
		headroomMax = 256
	}
	return specs, append(loads, 1500), headroomMax
}

// hotLane is one of a point's most-utilized arbitration lanes in the
// JSON report.
type hotLane struct {
	Port        string  `json:"port"`
	VL          uint8   `json:"vl"`
	Demand      float64 `json:"demand"`
	Potential   float64 `json:"potential"`
	Utilization float64 `json:"utilization"`
	Saturated   bool    `json:"saturated"`
	QueuePkts   float64 `json:"queuePkts"`
}

// planResult is the analytical verdict on one (spec, load) point.
// Every field is a pure function of the point's parameters and seed,
// so equal inputs give byte-identical JSON at any worker count —
// except ModelMicros, which is wall-clock and therefore excluded from
// the encoding.
type planResult struct {
	Class    string  `json:"class"`
	Label    string  `json:"label"`
	Switches int     `json:"switches"`
	Hosts    int     `json:"hosts"`
	Planes   int     `json:"planes"`
	Seed     int64   `json:"seed"`
	Load     float64 `json:"load"`

	Attempts int `json:"attempts"`
	Admitted int `json:"admitted"`
	Rejected int `json:"rejected"`
	BEFlows  int `json:"beFlows"`

	OfferedBPCNode   float64 `json:"offeredBPCNode"`
	PredictedBPCNode float64 `json:"predictedBPCNode"`

	Lanes          int     `json:"lanes"`
	SaturatedLanes int     `json:"saturatedLanes"`
	MaxUtilization float64 `json:"maxUtilization"`
	Stable         bool    `json:"stable"`

	MeanDelayRatio float64 `json:"meanDelayRatio"`
	MeanQueuePkts  float64 `json:"meanQueuePkts"`

	HotLanes []hotLane `json:"hotLanes"`

	HeadroomSL    uint8  `json:"headroomSL"`
	HeadroomExtra int    `json:"headroomExtra"`
	HeadroomLimit string `json:"headroomLimit"`

	// ModelMicros is the model's evaluation wall-clock (headroom
	// excluded).  Wall-clock is nondeterministic, so the golden files
	// and worker-identity tests never see it; the CLI logs it in the
	// report's timing section for the speedup-vs-simulation claim.
	ModelMicros int64 `json:"-"`
}

// hotLaneCount bounds the per-point lane list in reports: the full
// lane set of a big fabric is thousands of rows, but capacity planning
// reads only the hottest few.
const hotLaneCount = 8

// planPoint evaluates the point sc analytically, with a headroom
// bisection at service level headroomSL up to headroomMax extra flows
// when headroomMax is positive.
func planPoint(sc Scenario, headroomSL uint8, headroomMax int) (planResult, error) {
	var res planResult
	spec, load, seed := sc.Topology, sc.Load, sc.Seed
	opt := plan.Options{Payload: sc.Fabric.PayloadBytes, MaxConsecutiveRejects: sc.MaxRejects}

	start := time.Now()
	m, err := plan.Evaluate(spec, load, seed, opt)
	if err != nil {
		return res, err
	}
	micros := time.Since(start).Microseconds()
	res = planResult{
		Class: spec.Class.String(), Label: spec.Label(), Switches: m.Switches, Hosts: m.Hosts, Planes: m.Planes,
		Seed: seed, Load: load, Attempts: m.Attempts, Admitted: m.Admitted, Rejected: m.Rejected, BEFlows: m.BEFlows,
		OfferedBPCNode: m.OfferedBPCNode, PredictedBPCNode: m.PredictedBPCNode,
		Lanes: len(m.Lanes), SaturatedLanes: m.SaturatedLanes, MaxUtilization: m.MaxUtilization, Stable: m.Stable,
		MeanDelayRatio: m.MeanDelayRatio, MeanQueuePkts: m.MeanQueuePkts, HotLanes: hotLanes(m),
		ModelMicros: micros,
	}

	if headroomMax > 0 {
		h, err := plan.Headroom(spec, load, seed, opt, headroomSL, headroomMax)
		if err != nil {
			return res, err
		}
		res.HeadroomSL = h.SL
		res.HeadroomExtra = h.Extra
		res.HeadroomLimit = h.Limit
	}
	return res, nil
}

// hotLanes picks the point's most-utilized lanes, deterministically:
// utilization descending, ties by (port order, VL) — the same total
// order at any worker count.
func hotLanes(m *plan.Result) []hotLane {
	idx := make([]int, len(m.Lanes))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return m.Lanes[idx[a]].Utilization > m.Lanes[idx[b]].Utilization
	})
	n := min(hotLaneCount, len(idx))
	out := make([]hotLane, 0, n)
	for _, i := range idx[:n] {
		ln := m.Lanes[i]
		out = append(out, hotLane{
			Port: ln.Port.String(), VL: ln.VL,
			Demand: ln.Demand, Potential: ln.Potential,
			Utilization: ln.Utilization, Saturated: ln.Saturated,
			QueuePkts: ln.QueuePkts,
		})
	}
	return out
}

// planSweep evaluates sc at every (spec, load) point of the grid, the
// analytical WRR model over the grid the scale experiment simulates.
// Results come back in input order regardless of worker count, so the
// sweep's JSON encoding is bit-identical at any parallelism.
func planSweep(sc Scenario, specs []topology.Spec, loads []float64, headroomSL uint8, headroomMax, workers int) ([]planResult, error) {
	return gridSweep(sc, specs, loads, workers, func(sc Scenario) (planResult, error) {
		return planPoint(sc, headroomSL, headroomMax)
	})
}

// printPlan renders a plan sweep as a table, one row per point.
func printPlan(w io.Writer, res []planResult) {
	if len(res) == 0 {
		return
	}
	fmt.Fprintln(w, "Analytical capacity plan (model-predicted, no simulation)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "topology\tsw\thosts\tload\tadm/att\tpred BPC/node\tmax util\tsat\tstable\tdelay\theadroom\tmodel µs")
	for _, r := range res {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2g\t%d/%d\t%.4f\t%.3f\t%d/%d\t%v\t%.3f\t+%d SL%d (%s)\t%d\n",
			r.Label, r.Switches, r.Hosts, r.Load,
			r.Admitted, r.Attempts,
			r.PredictedBPCNode, r.MaxUtilization,
			r.SaturatedLanes, r.Lanes, r.Stable, r.MeanDelayRatio,
			r.HeadroomExtra, r.HeadroomSL, r.HeadroomLimit,
			r.ModelMicros)
	}
	tw.Flush()
}
