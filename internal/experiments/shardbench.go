package experiments

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"repro/internal/fabric"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ShardBenchParams sizes the sharded-core throughput benchmark: one
// structured fabric under a fixed offered load, simulated to a fixed
// horizon once per shard count.  Every run offers identical traffic
// (connections and background depend only on topology and seed), so
// the rows differ only in how the event core is partitioned —
// events/second against the single-engine baseline is the speedup of
// the conservative-lookahead sync protocol.
type ShardBenchParams struct {
	Spec      topology.Spec
	Load      float64 // QoS admission-attempt factor, as in ScaleParams
	BEMbps    float64 // best-effort background per host, Mbps
	Seed      int64
	Payload   int   // packet payload bytes
	HorizonBT int64 // simulated run length, byte times
	Shards    []int // shard counts to benchmark, in order (-bench-shards)
}

// ShardBenchDefault is the PR benchmark configuration: a k=8 fat-tree
// at high load, single-engine baseline against 2/4/8 shards.
func ShardBenchDefault() ShardBenchParams {
	return ShardBenchParams{
		Spec:      topology.Spec{Class: topology.FatTree, K: 8},
		Load:      2,
		BEMbps:    600,
		Seed:      7,
		Payload:   512,
		HorizonBT: 1_500_000,
		Shards:    []int{1, 2, 4, 8},
	}
}

// ShardBenchResult is one shard count's row.
type ShardBenchResult struct {
	Shards   int    `json:"shards"`
	Parallel bool   `json:"parallel"`
	Windows  uint64 `json:"windows"`
	// Synchronization work of the conservative protocol: barrier
	// passes, barriers that ran serialized control events, and the
	// control events so serialized.  All zero in single-engine rows.
	Barriers   uint64 `json:"barriers"`
	CtrlTurns  uint64 `json:"ctrlTurns"`
	CtrlEvents uint64 `json:"ctrlEvents"`
	// CPUs records the host parallelism the wall-clock columns were
	// measured under (the speedup ceiling is min(shards, cpus)).
	CPUs         int     `json:"cpus"`
	Events       uint64  `json:"events"`
	Delivered    int64   `json:"delivered"`
	WallMS       float64 `json:"wallMS"`
	EventsPerSec float64 `json:"eventsPerSec"`
	// Speedup is this row's events/sec over the Shards=1 row's (0 when
	// the sweep has no single-engine baseline).
	Speedup float64 `json:"speedupVsSingle"`
}

// ShardBench runs the benchmark grid.  Rows come back in input order;
// wall-clock timing makes the absolute numbers machine-dependent, but
// the Events column is exact and the simulated work per row is
// identical by construction.
func ShardBench(p ShardBenchParams) ([]ShardBenchResult, error) {
	if p.Payload < 1 || p.HorizonBT < 1 || len(p.Shards) == 0 {
		return nil, fmt.Errorf("experiments: shard bench parameters %+v out of range", p)
	}
	for _, shards := range p.Shards {
		if shards < 1 {
			return nil, fmt.Errorf("experiments: shard bench: -bench-shards %d: need at least one shard", shards)
		}
	}
	var out []ShardBenchResult
	baseline := 0.0
	for _, shards := range p.Shards {
		res, err := shardBenchRun(p, shards)
		if err != nil {
			return nil, err
		}
		if shards == 1 {
			baseline = res.EventsPerSec
		}
		if baseline > 0 {
			res.Speedup = res.EventsPerSec / baseline
		}
		out = append(out, res)
	}
	return out, nil
}

// shardBenchMaxRejects stops the benchmark's QoS fill after this many
// refusals in a row.
const shardBenchMaxRejects = 40

// shardBenchRun builds, loads and times one run at the given shard
// count.
func shardBenchRun(p ShardBenchParams, shards int) (ShardBenchResult, error) {
	var res ShardBenchResult
	topo, err := p.Spec.Generate()
	if err != nil {
		return res, err
	}
	cfg := fabric.DefaultConfig(topo.NumSwitches, p.Payload, p.Seed)
	cfg.Shards = shards
	net, err := fabric.NewWithTopology(cfg, topo)
	if err != nil {
		return res, err
	}
	// The partitioner clamps a count above what the fabric can be cut
	// into; a row must measure the count it is labeled with.
	if net.Shards() != shards {
		return res, fmt.Errorf("experiments: shard bench: -bench-shards %d: %s partitions into at most %d shards",
			shards, p.Spec.Label(), net.Shards())
	}
	res.Shards = shards
	res.Parallel = net.Parallel()

	// The offered traffic is a pure function of (topo, seed): QoS
	// attempts scaled by load, then best-effort background, exactly as
	// ScalePoint offers them.
	fill, err := net.Adm.FillLoad(p.Load, p.Seed, shardBenchMaxRejects)
	if err != nil {
		return res, fmt.Errorf("experiments: shard bench: %w", err)
	}
	addConnections(net, fill.Admitted)
	for _, be := range traffic.BestEffortBackground(topo.NumHosts(), p.BEMbps, p.Seed+2) {
		net.AddBestEffort(be)
	}

	net.Start()
	start := time.Now()
	net.Run(p.HorizonBT)
	wall := time.Since(start)

	if err := net.CheckInvariants(); err != nil {
		return res, err
	}
	_, delivered, _ := net.Totals()
	if delivered == 0 {
		return res, fmt.Errorf("experiments: shard bench at %d shards delivered nothing", shards)
	}
	res.Windows = net.Windows()
	res.Barriers, res.CtrlTurns, res.CtrlEvents = net.SyncCounters()
	res.CPUs = runtime.NumCPU()
	res.Events = net.ExecutedEvents()
	res.Delivered = delivered
	res.WallMS = float64(wall.Nanoseconds()) / 1e6
	if wall > 0 {
		res.EventsPerSec = float64(res.Events) / wall.Seconds()
	}
	return res, nil
}

// PrintShardBench renders the benchmark as a table.  The CPU count is
// part of the header because the speedup column is only meaningful
// relative to it: with C cores the ceiling is min(shards, C), so a
// single-core host can at best show that the sync protocol's overhead
// is small, never a wall-clock speedup.
func PrintShardBench(w io.Writer, p ShardBenchParams, res []ShardBenchResult) {
	fmt.Fprintf(w, "Sharded-core throughput: %s load %g horizon %d BT (%d CPUs)\n",
		p.Spec.Label(), p.Load, p.HorizonBT, runtime.NumCPU())
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "shards\tparallel\twindows\tevents\tdelivered\twall ms\tevents/s\tspeedup")
	for _, r := range res {
		fmt.Fprintf(tw, "%d\t%v\t%d\t%d\t%d\t%.1f\t%.3g\t%.2f\n",
			r.Shards, r.Parallel, r.Windows, r.Events, r.Delivered,
			r.WallMS, r.EventsPerSec, r.Speedup)
	}
	tw.Flush()
}
