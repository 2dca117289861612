package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/topology"
)

// TestShardBenchRefusesUnmeasurableCounts: a negative shard count, or
// one the partitioner would clamp (more shards than the 4-switch
// fabric can be cut into), is refused with an error naming
// Fabric.Shards before any count runs, instead of a row that measured
// fewer shards than its label says.  Its axis is one engine and each
// doubling up to the count.
func TestShardBenchRefusesUnmeasurableCounts(t *testing.T) {
	sc := Scenario{
		Seed:     7,
		Topology: topology.Spec{Class: topology.Irregular, Switches: 4, Seed: 42},
		Fabric:   fabric.DefaultConfig(0, 256, 0),
		Load:     1, MaxRejects: 40, BEMbps: 100,
		HorizonBT: 100_000,
	}
	for _, shards := range []int{-1, 5, 16} {
		sc.Fabric.Shards = shards
		res, err := ShardBench(sc)
		if err == nil || !strings.Contains(err.Error(), "Fabric.Shards") {
			t.Errorf("%d shards: err = %v, rows %+v; want a refusal naming Fabric.Shards", shards, err, res)
		}
	}
	for last, want := range map[int][]int{0: {1}, 1: {1}, 2: {1, 2}, 6: {1, 2, 4, 6}, 8: {1, 2, 4, 8}} {
		if got := shardCounts(last); !slices.Equal(got, want) {
			t.Errorf("shardCounts(%d) = %v, want %v", last, got, want)
		}
	}
}
