package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/fabric"
	"repro/internal/routing/cdg"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ScaleParams sizes the structured-fabric experiment: a grid of
// topology specs (fat-tree, dragonfly, irregular) crossed with offered
// loads.  Every point re-proves deadlock freedom of its routing engine
// with the channel-dependency-graph verifier before any packet moves,
// then fills the fabric with QoS connections and best-effort
// background scaled by the load factor and measures delivery under the
// usual steady-state window.
type ScaleParams struct {
	Specs   []topology.Spec
	Loads   []float64 // offered-load factors: QoS attempts and BE Mbps per host
	Seed    int64
	Payload int // packet payload bytes

	MaxConsecutiveRejects int
	MinPacketsSlowest     int
	WarmupIATs            int64

	// Shards and ShardDet select the sharded simulation core for every
	// point, exactly as Params.Shards / Params.ShardDet do.
	Shards   int
	ShardDet bool
}

// ScaleTiny is the unit-test and golden-file scale: the smallest
// member of each topology class under a light and a heavy load.
func ScaleTiny() ScaleParams {
	return ScaleParams{
		Specs: []topology.Spec{
			{Class: topology.Irregular, Switches: 4, Seed: 42},
			{Class: topology.FatTree, K: 2},
			{Class: topology.Dragonfly, A: 2, P: 1, H: 1},
		},
		Loads:                 []float64{0.5, 2},
		Seed:                  1,
		Payload:               512,
		MaxConsecutiveRejects: 20,
		MinPacketsSlowest:     30,
		WarmupIATs:            1,
	}
}

// ScaleQuick is the CLI default: mid-size instances of each class.
func ScaleQuick() ScaleParams {
	p := ScaleTiny()
	p.Specs = []topology.Spec{
		{Class: topology.Irregular, Switches: 8, Seed: 42},
		{Class: topology.FatTree, K: 4},
		{Class: topology.Dragonfly, A: 4, P: 2, H: 2},
	}
	p.Loads = []float64{0.5, 1, 2}
	p.MinPacketsSlowest = 60
	return p
}

// ScaleResult is the outcome of one (spec, load) point.  Every field
// is a pure function of the point's parameters and seed, so equal
// inputs give byte-identical JSON at any worker count.
type ScaleResult struct {
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

// ScalePoint runs one (spec, load) point.
func ScalePoint(p ScaleParams, spec topology.Spec, load float64, seed int64) (ScaleResult, error) {
	var res ScaleResult
	if p.Payload < 1 || p.MinPacketsSlowest < 1 {
		return res, fmt.Errorf("experiments: scale point (%v, load %g) out of range", spec, load)
	}
	topo, err := spec.Generate()
	if err != nil {
		return res, err
	}
	cfg := fabric.DefaultConfig(topo.NumSwitches, p.Payload, seed)
	cfg.Shards = p.Shards
	cfg.ShardDeterministic = p.ShardDet
	net, err := fabric.NewWithTopology(cfg, topo)
	if err != nil {
		return res, err
	}
	net.EnableMetrics()

	res.Class = spec.Class.String()
	res.Label = spec.Label()
	res.Switches = topo.NumSwitches
	res.Hosts = topo.NumHosts()
	res.Planes = net.Routes.Planes()
	res.Seed = seed
	res.Load = load

	// Prove the engine deadlock-free on this exact instance before
	// offering any traffic.
	res.CDG, err = cdg.Verify(topo, net.Routes)
	if err != nil {
		return res, err
	}

	fill, err := net.Adm.FillLoad(load, seed, p.MaxConsecutiveRejects)
	if err != nil {
		return res, fmt.Errorf("experiments: scale point %s: %w", res.Label, err)
	}
	res.Attempts, res.Admitted, res.Rejected = fill.Attempts, len(fill.Admitted), fill.Rejected
	flows := addConnections(net, fill.Admitted)
	for _, be := range traffic.BestEffortBackground(topo.NumHosts(), load, seed+2) {
		net.AddBestEffort(be)
		res.BEFlows++
	}

	measure(net, flows, p.WarmupIATs, p.MinPacketsSlowest)
	if err := net.CheckInvariants(); err != nil {
		return res, err
	}
	_, _, dropped := net.Totals()
	res.DroppedPackets = dropped
	res.InjectedBPCNode = net.InjectedBytesPerCyclePerNode()
	res.DeliveredBPCNode = net.DeliveredBytesPerCyclePerNode()
	res.HostUtil = net.MeanHostUtilization()
	res.SwitchUtil = net.MeanSwitchPortUtilization()

	delay := mergedDelay(flows)
	if delay.Total() > 0 {
		res.MeanDelayRatio = delay.MeanRatio()
		res.DeadlineMetPct = delay.PercentMeetingDeadline()
	}
	res.EndTimeBT = net.Now()
	return res, nil
}

// ScaleSweep runs every (spec, load) point of the grid.  Results come
// back in input order regardless of worker count, so the sweep's JSON
// encoding is bit-identical at any parallelism.
func ScaleSweep(p ScaleParams, workers int) ([]ScaleResult, error) {
	return gridSweep(p.Specs, p.Loads, p.Seed, workers, func(spec topology.Spec, load float64, seed int64) (ScaleResult, error) {
		return ScalePoint(p, spec, load, seed)
	})
}

// PrintScale renders a scale sweep as a table, one row per point.
func PrintScale(w io.Writer, res []ScaleResult) {
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
