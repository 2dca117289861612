package experiments

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"repro/internal/fabric"
	"repro/internal/topology"
)

// ShardBenchScenario is the sharded-core throughput benchmark's
// scenario at scale s: a k=8 fat-tree at high load, simulated to a
// fixed horizon once per shard count of its axis, up to Fabric.Shards.
// Every run offers identical traffic (connections and background
// depend only on topology and seed), so the rows differ only in how
// the event core is partitioned — events/second against the
// single-engine baseline is the speedup of the conservative-lookahead
// sync protocol.  Tiny is a short horizon for smoke runs.
func ShardBenchScenario(s Scale) Scenario {
	sc := Scenario{
		Seed:     7,
		Topology: topology.Spec{Class: topology.FatTree, K: 8},
		Fabric:   fabric.DefaultConfig(0, 512, 0),
		Load:     2, MaxRejects: 40, BEMbps: 600,
		HorizonBT: 1_500_000,
	}
	sc.Fabric.Shards = 8
	if s == Tiny {
		sc.HorizonBT = 200_000
	}
	return sc
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

// ShardBench runs sc once per shard count, in order: one engine, then
// each doubling below sc.Fabric.Shards, then sc.Fabric.Shards itself.
// Wall-clock timing makes the absolute numbers machine-dependent, but
// the Events column is exact and the simulated work per row is
// identical by construction.
func ShardBench(sc Scenario) ([]ShardBenchResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.HorizonBT < 1 {
		return nil, refuse("HorizonBT", "the benchmark needs a positive horizon, not %d BT", sc.HorizonBT)
	}
	var out []ShardBenchResult
	baseline := 0.0
	for _, n := range shardCounts(sc.Fabric.Shards) {
		sc.Fabric.Shards = n
		res, err := shardBenchRun(sc)
		if err != nil {
			return nil, err
		}
		if n == 1 {
			baseline = res.EventsPerSec
		}
		if baseline > 0 {
			res.Speedup = res.EventsPerSec / baseline
		}
		out = append(out, res)
	}
	return out, nil
}

// shardCounts is the benchmark's axis up to last shards: one engine,
// each doubling below last, then last.
func shardCounts(last int) []int {
	counts := []int{1}
	for n := 2; n < last; n *= 2 {
		counts = append(counts, n)
	}
	if last > 1 {
		counts = append(counts, last)
	}
	return counts
}

// shardBenchRun builds, loads and times one run of sc.
func shardBenchRun(sc Scenario) (ShardBenchResult, error) {
	shards := sc.Fabric.Shards
	res := ShardBenchResult{Shards: shards}
	r, err := build(sc)
	if err != nil {
		return res, fmt.Errorf("experiments: shard bench at %d shards on %s: %w", shards, sc.Topology.Label(), err)
	}
	net := r.Net
	res.Parallel = net.Parallel()
	if err := r.offer(); err != nil {
		return res, err
	}

	net.Start()
	start := time.Now()
	net.Run(sc.HorizonBT)
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
func PrintShardBench(w io.Writer, sc Scenario, res []ShardBenchResult) {
	fmt.Fprintf(w, "Sharded-core throughput: %s load %g horizon %d BT (%d CPUs)\n",
		sc.Topology.Label(), sc.Load, sc.HorizonBT, runtime.NumCPU())
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "shards\tparallel\twindows\tevents\tdelivered\twall ms\tevents/s\tspeedup")
	for _, r := range res {
		fmt.Fprintf(tw, "%d\t%v\t%d\t%d\t%d\t%.1f\t%.3g\t%.2f\n",
			r.Shards, r.Parallel, r.Windows, r.Events, r.Delivered,
			r.WallMS, r.EventsPerSec, r.Speedup)
	}
	tw.Flush()
}
