package experiments

import (
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/topology"
)

// TestShardBenchRefusesUnmeasurableCounts: a shard count below one, or
// one the partitioner would clamp (more shards than the 4-switch
// fabric can be cut into), is refused with an error naming
// -bench-shards, instead of a row that measured fewer shards than its
// label says.
func TestShardBenchRefusesUnmeasurableCounts(t *testing.T) {
	sc := Scenario{
		Seed:     7,
		Topology: topology.Spec{Class: topology.Irregular, Switches: 4, Seed: 42},
		Fabric:   fabric.DefaultConfig(0, 256, 0),
		Load:     1, MaxRejects: 40, BEMbps: 100,
		HorizonBT: 100_000,
	}
	for _, shards := range []int{0, -1, 16} {
		res, err := ShardBench(sc, []int{shards})
		if err == nil || !strings.Contains(err.Error(), "-bench-shards") {
			t.Errorf("%d shards: err = %v, rows %+v; want a refusal naming -bench-shards", shards, err, res)
		}
	}
}
