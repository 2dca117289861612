package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/admission"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/routing/cdg"
	"repro/internal/stats"
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
	pt, err := runLoadedPoint(HOLParams{ScaleParams: p}, fabric.ModelWRR, spec, load, seed)
	if err != nil {
		return ScaleResult{}, err
	}
	net := pt.net
	res := ScaleResult{
		Class:    spec.Class.String(),
		Label:    spec.Label(),
		Switches: net.Topo.NumSwitches,
		Hosts:    net.Topo.NumHosts(),
		Planes:   net.Routes.Planes(),
		Seed:     seed,
		Load:     load,
		CDG:      pt.cdg,

		Attempts: pt.fill.Attempts,
		Admitted: len(pt.fill.Admitted),
		Rejected: pt.fill.Rejected,
		BEFlows:  pt.beFlows,

		InjectedBPCNode:  net.InjectedBytesPerCyclePerNode(),
		DeliveredBPCNode: net.DeliveredBytesPerCyclePerNode(),
		HostUtil:         net.MeanHostUtilization(),
		SwitchUtil:       net.MeanSwitchPortUtilization(),

		DroppedPackets: pt.dropped,
		EndTimeBT:      net.Now(),
	}
	if pt.delay.Total() > 0 {
		res.MeanDelayRatio = pt.delay.MeanRatio()
		res.DeadlineMetPct = pt.delay.PercentMeetingDeadline()
	}
	return res, nil
}

// loadedPoint is one structured-fabric point after its measurement
// window.
type loadedPoint struct {
	net     *fabric.Network
	metrics *metrics.Metrics
	cdg     cdg.Stats // the deadlock-freedom proof of the point's routing
	fill    admission.FillResult
	beFlows int
	dropped int64
	delay   *stats.DelayCDF // merged over the admitted QoS flows
}

// runLoadedPoint is the run every scale and hol point makes: generate
// spec's fabric with the given switch model, prove its routing engine
// deadlock-free on this exact instance before offering any traffic,
// fill it with QoS connections and best-effort background scaled by
// load, measure the steady state and audit the invariants.  The
// offered traffic depends only on (spec, load, seed), never on the
// switch model.
func runLoadedPoint(p HOLParams, model fabric.SwitchModel, spec topology.Spec, load float64, seed int64) (*loadedPoint, error) {
	if p.Payload < 1 || p.MinPacketsSlowest < 1 {
		return nil, fmt.Errorf("experiments: point (%v, %v, load %g) out of range", spec, model, load)
	}
	topo, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	cfg := fabric.DefaultConfig(topo.NumSwitches, p.Payload, seed)
	cfg.SwitchModel = model
	cfg.ISLIPIters = p.ISLIPIters
	cfg.Shards = p.Shards
	cfg.ShardDeterministic = p.ShardDet
	net, err := fabric.NewWithTopology(cfg, topo)
	if err != nil {
		return nil, err
	}
	pt := &loadedPoint{net: net, metrics: net.EnableMetrics()}
	if pt.cdg, err = cdg.Verify(topo, net.Routes); err != nil {
		return nil, err
	}
	if pt.fill, err = net.Adm.FillLoad(load, seed, p.MaxConsecutiveRejects); err != nil {
		return nil, fmt.Errorf("experiments: point %s/%v: %w", spec.Label(), model, err)
	}
	flows := addConnections(net, pt.fill.Admitted)
	for _, be := range traffic.BestEffortBackground(topo.NumHosts(), load, seed+2) {
		net.AddBestEffort(be)
		pt.beFlows++
	}
	measure(net, flows, p.WarmupIATs, p.MinPacketsSlowest)
	if err := net.CheckInvariants(); err != nil {
		return nil, err
	}
	_, _, pt.dropped = net.Totals()
	pt.delay = mergedDelay(flows)
	return pt, nil
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
