// Package experiments contains one runner per table and figure of the
// paper's evaluation (section 4), plus the ablations motivated by its
// design discussion.  Each runner builds the simulated network,
// establishes connections until the network is quasi-fully loaded,
// runs a transient (warm-up) period followed by a steady-state
// measurement window, and reports the same rows or series the paper
// does.  DESIGN.md maps every experiment to its runner.
package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/admission"
	"repro/internal/fabric"
	"repro/internal/runner"
	"repro/internal/sl"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Packet payloads of the evaluation: the paper contrasts a small and a
// large packet size.
const (
	SmallPayload = 256
	LargePayload = 2048
)

// Params sizes an experiment run.
type Params struct {
	Switches              int   // network size (paper: 16)
	Seed                  int64 // topology, workload and phase randomness
	MaxConsecutiveRejects int   // connection fill stop criterion
	MinPacketsSlowest     int   // steady state: packets the slowest connection must receive
	BEPerHostMbps         float64
	WarmupIATs            int64 // warm-up length in units of the slowest IAT

	// Metrics attaches per-network observability counters to every
	// run built from these parameters (fabric.Network.EnableMetrics).
	Metrics bool

	// TraceEvents, when positive, attaches a ring buffer recording the
	// last TraceEvents arbitration decisions of each run.
	TraceEvents int

	// Shards splits each run's fabric into that many topology-local
	// partitions simulated in conservative-lookahead windows
	// (fabric.Config.Shards); 0 and 1 keep the classic single-engine
	// core.  ShardDet pins all shards to one engine so results stay
	// bit-identical across shard counts (fabric.Config.ShardDeterministic).
	Shards   int
	ShardDet bool
}

// Full returns the paper-scale parameters: 16 switches and 64 hosts,
// measuring until the smallest-bandwidth connection has received a
// statistically useful number of packets.
func Full() Params {
	return Params{
		Switches:              16,
		Seed:                  42,
		MaxConsecutiveRejects: 1000,
		MinPacketsSlowest:     100,
		BEPerHostMbps:         200,
		WarmupIATs:            2,
	}
}

// Quick returns a scaled-down configuration for benchmarks and smoke
// tests: a 4-switch network and a short measurement window.  The
// qualitative shape of every result is preserved.
func Quick() Params {
	return Params{
		Switches:              4,
		Seed:                  42,
		MaxConsecutiveRejects: 400,
		MinPacketsSlowest:     12,
		BEPerHostMbps:         150,
		WarmupIATs:            2,
	}
}

// Tiny returns the smallest meaningful configuration, used by unit
// tests.
func Tiny() Params {
	return Params{
		Switches:              2,
		Seed:                  42,
		MaxConsecutiveRejects: 60,
		MinPacketsSlowest:     6,
		BEPerHostMbps:         100,
		WarmupIATs:            1,
	}
}

// Run is one fully set-up and executed simulation: the network, its
// admitted connections and their flows.
type Run struct {
	P       Params
	Payload int
	Net     *fabric.Network
	Fill    admission.FillResult // the admitted connections and the fill's counts
	Flows   []*fabric.Flow       // QoS flows, aligned with Fill.Admitted
	BEFlows []*fabric.Flow
}

// SetupWith builds the network, loads it with connections until
// admission control refuses more, and attaches the best-effort
// background.  A non-nil mutate adjusts the fabric configuration first
// (used by the VL-collapse ablation and custom scenarios).
func SetupWith(p Params, payload int, mutate func(*fabric.Config)) (*Run, error) {
	cfg := fabric.DefaultConfig(p.Switches, payload, p.Seed)
	cfg.Shards = p.Shards
	cfg.ShardDeterministic = p.ShardDet
	if mutate != nil {
		mutate(&cfg)
	}
	net, err := fabric.New(cfg)
	if err != nil {
		return nil, err
	}
	if p.Metrics {
		net.EnableMetrics()
	}
	if p.TraceEvents > 0 {
		net.EnableTrace(p.TraceEvents)
	}
	src := traffic.NewSource(sl.DefaultLevels, net.Topo.NumHosts(), p.Seed+1)
	fill := net.Adm.Fill(src, math.MaxInt, p.MaxConsecutiveRejects)
	if len(fill.Admitted) == 0 {
		return nil, fmt.Errorf("experiments: no connections admitted")
	}
	r := &Run{P: p, Payload: payload, Net: net, Fill: fill, Flows: addConnections(net, fill.Admitted)}
	for _, be := range traffic.BestEffortBackground(net.Topo.NumHosts(), p.BEPerHostMbps, p.Seed+2) {
		r.BEFlows = append(r.BEFlows, net.AddBestEffort(be))
	}
	return r, nil
}

// Execute runs the transient period and then the steady-state window
// (measure).
func (r *Run) Execute() { measure(r.Net, r.Flows, r.P.WarmupIATs, r.P.MinPacketsSlowest) }

// addConnections attaches one CBR flow per admitted connection, in
// order.
func addConnections(net *fabric.Network, conns []*admission.Conn) []*fabric.Flow {
	flows := make([]*fabric.Flow, len(conns))
	for i, conn := range conns {
		flows[i] = net.AddConnection(conn)
	}
	return flows
}

// measure is the steady-state protocol of every fabric run that
// measures until a quota: start the flows, warm up for warmupIATs
// interarrival periods of the slowest QoS flow, open the measurement
// window, and run until that flow has received minPackets packets —
// with a generous time cap so a defect cannot hang the harness.
// qosFlows must not be empty.
func measure(net *fabric.Network, qosFlows []*fabric.Flow, warmupIATs int64, minPackets int) {
	slowest := qosFlows[0]
	for _, f := range qosFlows[1:] {
		if f.IAT > slowest.IAT {
			slowest = f
		}
	}
	net.Start()
	warmup := warmupIATs * slowest.IAT
	net.Run(warmup)
	net.StartMeasurement()
	target := int64(minPackets)
	timeCap := warmup + (target+8)*slowest.IAT*2
	net.RunWhile(func() bool {
		return slowest.Delivered.Packets < target && net.Now() < timeCap
	})
}

// mergedDelay merges the delay distributions of flows, in order.
func mergedDelay(flows []*fabric.Flow) *stats.DelayCDF {
	all := stats.NewDelayCDF()
	for _, f := range flows {
		all.Merge(f.Delay)
	}
	return all
}

// DelayBySL merges the per-connection delay distributions of each
// service level.
func (r *Run) DelayBySL() map[uint8]*stats.DelayCDF {
	out := make(map[uint8]*stats.DelayCDF)
	for _, f := range r.Flows {
		d, ok := out[f.SL]
		if !ok {
			d = stats.NewDelayCDF()
			out[f.SL] = d
		}
		d.Merge(f.Delay)
	}
	return out
}

// JitterBySL merges the per-connection jitter histograms of each
// service level.
func (r *Run) JitterBySL() map[uint8]*stats.JitterHist {
	out := make(map[uint8]*stats.JitterHist)
	for _, f := range r.Flows {
		j, ok := out[f.SL]
		if !ok {
			j = &stats.JitterHist{}
			out[f.SL] = j
		}
		j.Merge(f.Jitter)
	}
	return out
}

// BestWorst returns the connections of a service level with the
// highest and lowest percentage of packets delivered before the
// threshold with the given index into stats.DelayFractions.  Flows
// without samples are skipped.
func (r *Run) BestWorst(slID uint8, thresholdIdx int) (best, worst *fabric.Flow) {
	for _, f := range r.Flows {
		if f.SL != slID || f.Delay.Total() == 0 {
			continue
		}
		if best == nil || f.Delay.PercentBelow(thresholdIdx) > best.Delay.PercentBelow(thresholdIdx) {
			best = f
		}
		if worst == nil || f.Delay.PercentBelow(thresholdIdx) < worst.Delay.PercentBelow(thresholdIdx) {
			worst = f
		}
	}
	return best, worst
}

// SLIDs returns the service levels present among the run's flows, in
// ascending order.
func (r *Run) SLIDs() []uint8 {
	seen := make(map[uint8]bool)
	for _, f := range r.Flows {
		seen[f.SL] = true
	}
	out := make([]uint8, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Evaluation bundles the two executed runs (small and large packets)
// all table/figure extractors derive from, so the expensive
// simulations happen once.
type Evaluation struct {
	Small, Large *Run
}

// Evaluate sets up and executes the small- and large-packet runs on
// workers goroutines (each run is single-goroutine; independent runs
// fan out).
func Evaluate(p Params, workers int) (*Evaluation, error) {
	runs, err := runner.Sweep([]runner.Job[*Run]{
		{Name: "small-packets", Seed: p.Seed, Run: func(int64) (*Run, error) {
			return setupAndExecute(p, SmallPayload, nil)
		}},
		{Name: "large-packets", Seed: p.Seed, Run: func(int64) (*Run, error) {
			return setupAndExecute(p, LargePayload, nil)
		}},
	}, workers)
	if err != nil {
		return nil, err
	}
	return &Evaluation{Small: runs[0], Large: runs[1]}, nil
}

// gridSweep runs point at every (spec, load) of the grid, spec-major,
// each with a seed derived from base and the point's index.
func gridSweep[T any](specs []topology.Spec, loads []float64, base int64, workers int,
	point func(spec topology.Spec, load float64, seed int64) (T, error)) ([]T, error) {
	var jobs []runner.Job[T]
	for _, spec := range specs {
		for _, load := range loads {
			jobs = append(jobs, runner.Job[T]{
				Name: fmt.Sprintf("%s-load%g", spec.Label(), load),
				Seed: runner.DeriveSeed(base, len(jobs)),
				Run: func(seed int64) (T, error) {
					return point(spec, load, seed)
				},
			})
		}
	}
	return runner.Sweep(jobs, workers)
}

// setupAndExecute is the unit of work every sweep job runs: build the
// network, load it, and drive it through warm-up and measurement.
func setupAndExecute(p Params, payload int, mutate func(*fabric.Config)) (*Run, error) {
	run, err := SetupWith(p, payload, mutate)
	if err != nil {
		return nil, err
	}
	run.Execute()
	return run, nil
}
