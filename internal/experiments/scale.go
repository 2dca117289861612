package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/fabric"
	"repro/internal/routing/cdg"
	"repro/internal/topology"
)

// scaleScenario is the base of the structured-fabric experiments at
// scale s: the scale and hol sweeps simulate it, and the plan models
// it, at every (spec, load) point of scaleGrid.  Every point re-proves
// deadlock freedom of its routing engine with the
// channel-dependency-graph verifier before any packet moves, then fills
// the fabric with QoS connections and best-effort background scaled by
// the load factor and measures delivery under the usual steady-state
// window.
func scaleScenario(s Scale) Scenario {
	sc := Scenario{Seed: 1, Fabric: fabric.DefaultConfig(0, 512, 0), MaxRejects: 20, WarmupIATs: 1, MinPackets: 30, Metrics: true}
	if s != Tiny {
		sc.MinPackets = 60
	}
	return sc
}

// scaleGrid is the (spec, load) grid of the scale and hol sweeps at
// scale s: the smallest member of each topology class under a light
// and a heavy load at Tiny, mid-size instances under three loads above
// it.
func scaleGrid(s Scale) (specs []topology.Spec, loads []float64) {
	if s == Tiny {
		return []topology.Spec{
			irregular(4, 42),
			{Class: topology.FatTree, K: 2},
			{Class: topology.Dragonfly, A: 2, P: 1, H: 1},
		}, []float64{0.5, 2}
	}
	return []topology.Spec{
		irregular(8, 42),
		{Class: topology.FatTree, K: 4},
		{Class: topology.Dragonfly, A: 4, P: 2, H: 2},
	}, []float64{0.5, 1, 2}
}

// scaleResult is the outcome of one (spec, load) point.  Every field
// is a pure function of the point's parameters and seed, so equal
// inputs give byte-identical JSON at any worker count.
type scaleResult struct {
	Class    string  `json:"class"`
	Label    string  `json:"label"`
	Switches int     `json:"switches"`
	Hosts    int     `json:"hosts"`
	Planes   int     `json:"planes"`
	Seed     int64   `json:"seed"`
	Load     float64 `json:"load"`

	// Deadlock-freedom proof of the point's routing engine: the
	// channel-dependency graph the verifier walked and found acyclic.
	CDG cdg.Stats `json:"cdg"`

	Attempts int `json:"attempts"`
	Admitted int `json:"admitted"`
	Rejected int `json:"rejected"`
	BEFlows  int `json:"beFlows"`

	InjectedBPCNode  float64 `json:"injectedBPCNode"`
	DeliveredBPCNode float64 `json:"deliveredBPCNode"`
	HostUtil         float64 `json:"hostUtil"`
	SwitchUtil       float64 `json:"switchUtil"`

	MeanDelayRatio float64 `json:"meanDelayRatio"`
	DeadlineMetPct float64 `json:"deadlineMetPct"`
	DroppedPackets int64   `json:"droppedPackets"`
	EndTimeBT      int64   `json:"endTimeBT"`
}

// scalePoint runs the point sc.
func scalePoint(sc Scenario) (scaleResult, error) {
	r, err := measured(sc)
	if err != nil {
		return scaleResult{}, err
	}
	net := r.Net
	_, _, dropped := net.Totals()
	res := scaleResult{
		Class:    sc.Topology.Class.String(),
		Label:    sc.Topology.Label(),
		Switches: net.Topo.NumSwitches,
		Hosts:    net.Topo.NumHosts(),
		Planes:   net.Routes.Planes(),
		Seed:     sc.Seed,
		Load:     sc.Load,
		CDG:      r.proof,

		Attempts: r.Fill.Attempts,
		Admitted: len(r.Fill.Admitted),
		Rejected: r.Fill.Rejected,
		BEFlows:  len(r.BEFlows),

		InjectedBPCNode:  net.InjectedBytesPerCyclePerNode(),
		DeliveredBPCNode: net.DeliveredBytesPerCyclePerNode(),
		HostUtil:         net.MeanHostUtilization(),
		SwitchUtil:       net.MeanSwitchPortUtilization(),

		DroppedPackets: dropped,
		EndTimeBT:      net.Now(),
	}
	if delay := mergedDelay(r.Flows); delay.Total() > 0 {
		res.MeanDelayRatio = delay.MeanRatio()
		res.DeadlineMetPct = delay.PercentMeetingDeadline()
	}
	return res, nil
}

// scaleSweep runs sc at every (spec, load) point of the grid.  Results
// come back in input order regardless of worker count, so the sweep's
// JSON encoding is bit-identical at any parallelism.
func scaleSweep(sc Scenario, specs []topology.Spec, loads []float64, workers int) ([]scaleResult, error) {
	return gridSweep(sc, specs, loads, workers, scalePoint)
}

// printScale renders a scale sweep as a table, one row per point.
func printScale(w io.Writer, res []scaleResult) {
	if len(res) == 0 {
		return
	}
	fmt.Fprintln(w, "Structured fabrics under load (CDG column proves the routing engine deadlock-free)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "topology\tsw\thosts\tpl\tload\tadm/att\tCDG ch/dep\tdel BPC/node\tsw util\tdelay\tdeadline%\tdrop")
	for _, r := range res {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.2g\t%d/%d\t%d/%d\t%.4f\t%.3f\t%.3f\t%.1f\t%d\n",
			r.Label, r.Switches, r.Hosts, r.Planes, r.Load,
			r.Admitted, r.Attempts, r.CDG.Channels, r.CDG.Deps,
			r.DeliveredBPCNode, r.SwitchUtil, r.MeanDelayRatio, r.DeadlineMetPct,
			r.DroppedPackets)
	}
	tw.Flush()
}
