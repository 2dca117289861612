package experiments

import (
	"strings"
	"testing"

	"repro/internal/topology"
)

// TestShardBenchRefusesUnmeasurableCounts: a shard count below one, or
// one the partitioner would clamp (more shards than the 4-switch
// fabric can be cut into), is refused with an error naming
// -bench-shards, instead of a row that measured fewer shards than its
// label says.
func TestShardBenchRefusesUnmeasurableCounts(t *testing.T) {
	p := ShardBenchParams{
		Spec:      topology.Spec{Class: topology.Irregular, Switches: 4, Seed: 42},
		Load:      1,
		BEMbps:    100,
		Seed:      7,
		Payload:   256,
		HorizonBT: 100_000,
	}
	for _, shards := range []int{0, -1, 16} {
		p.Shards = []int{shards}
		res, err := ShardBench(p)
		if err == nil || !strings.Contains(err.Error(), "-bench-shards") {
			t.Errorf("%d shards: err = %v, rows %+v; want a refusal naming -bench-shards", shards, err, res)
		}
	}
}
