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

// PlanParams sizes the capacity-planning experiment: the analytical
// WRR model evaluated over the same (spec, load) grid the scale
// experiment simulates, plus a headroom bisection answering "how many
// more flows at service level HeadroomSL does each point admit?".
type PlanParams struct {
	Specs   []topology.Spec
	Loads   []float64 // offered-load factors, the scale experiment's axis
	Seed    int64
	Payload int // packet payload bytes

	MaxConsecutiveRejects int

	HeadroomSL  uint8 // service level the headroom bisection probes
	HeadroomMax int   // probe ceiling per point
}

// PlanTiny is the unit-test and golden-file scale: the scale
// experiment's tiny specs with a heavy third load the model must call
// saturated.
func PlanTiny() PlanParams {
	return PlanParams{
		Specs:                 ScaleTiny().Specs,
		Loads:                 []float64{0.5, 2, 1500},
		Seed:                  1,
		Payload:               512,
		MaxConsecutiveRejects: 20,
		HeadroomSL:            4,
		HeadroomMax:           128,
	}
}

// PlanQuick is the CLI default: the scale experiment's mid-size specs.
func PlanQuick() PlanParams {
	p := PlanTiny()
	p.Specs = ScaleQuick().Specs
	p.Loads = []float64{0.5, 1, 2, 1500}
	p.HeadroomMax = 256
	return p
}

// HotLane is one of a point's most-utilized arbitration lanes in the
// JSON report.
type HotLane struct {
	Port        string  `json:"port"`
	VL          uint8   `json:"vl"`
	Demand      float64 `json:"demand"`
	Potential   float64 `json:"potential"`
	Utilization float64 `json:"utilization"`
	Saturated   bool    `json:"saturated"`
	QueuePkts   float64 `json:"queuePkts"`
}

// PlanResult is the analytical verdict on one (spec, load) point.
// Every field is a pure function of the point's parameters and seed,
// so equal inputs give byte-identical JSON at any worker count —
// except ModelMicros, which is wall-clock and therefore excluded from
// the encoding.
type PlanResult struct {
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

	HotLanes []HotLane `json:"hotLanes"`

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

// PlanPoint evaluates one (spec, load) point analytically.
func PlanPoint(p PlanParams, spec topology.Spec, load float64, seed int64) (PlanResult, error) {
	var res PlanResult
	opt := plan.Options{Payload: p.Payload, MaxConsecutiveRejects: p.MaxConsecutiveRejects}

	start := time.Now()
	m, err := plan.Evaluate(spec, load, seed, opt)
	if err != nil {
		return res, err
	}
	res.ModelMicros = time.Since(start).Microseconds()

	res.Class = spec.Class.String()
	res.Label = spec.Label()
	res.Switches = m.Switches
	res.Hosts = m.Hosts
	res.Planes = m.Planes
	res.Seed = seed
	res.Load = load
	res.Attempts = m.Attempts
	res.Admitted = m.Admitted
	res.Rejected = m.Rejected
	res.BEFlows = m.BEFlows
	res.OfferedBPCNode = m.OfferedBPCNode
	res.PredictedBPCNode = m.PredictedBPCNode
	res.Lanes = len(m.Lanes)
	res.SaturatedLanes = m.SaturatedLanes
	res.MaxUtilization = m.MaxUtilization
	res.Stable = m.Stable
	res.MeanDelayRatio = m.MeanDelayRatio
	res.MeanQueuePkts = m.MeanQueuePkts
	res.HotLanes = hotLanes(m)

	if p.HeadroomMax > 0 {
		h, err := plan.Headroom(spec, load, seed, opt, p.HeadroomSL, p.HeadroomMax)
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
func hotLanes(m *plan.Result) []HotLane {
	idx := make([]int, len(m.Lanes))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return m.Lanes[idx[a]].Utilization > m.Lanes[idx[b]].Utilization
	})
	n := hotLaneCount
	if n > len(idx) {
		n = len(idx)
	}
	out := make([]HotLane, 0, n)
	for _, i := range idx[:n] {
		ln := m.Lanes[i]
		out = append(out, HotLane{
			Port: ln.Port.String(), VL: ln.VL,
			Demand: ln.Demand, Potential: ln.Potential,
			Utilization: ln.Utilization, Saturated: ln.Saturated,
			QueuePkts: ln.QueuePkts,
		})
	}
	return out
}

// PlanSweep evaluates every (spec, load) point of the grid.  Results
// come back in input order regardless of worker count, so the sweep's
// JSON encoding is bit-identical at any parallelism.
func PlanSweep(p PlanParams, workers int) ([]PlanResult, error) {
	return gridSweep(p.Specs, p.Loads, p.Seed, workers, func(spec topology.Spec, load float64, seed int64) (PlanResult, error) {
		return PlanPoint(p, spec, load, seed)
	})
}

// PrintPlan renders a plan sweep as a table, one row per point.
func PrintPlan(w io.Writer, res []PlanResult) {
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
