package topology_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/topology"
)

// checkPartitionInvariants verifies the contract every caller of the
// sharded core depends on: the shards cover all switches exactly once,
// none is empty, every shard's induced switch graph is connected, and
// hosts follow their attachment switch.
func checkPartitionInvariants(t *testing.T, topo *topology.Topology, p *topology.Partition) {
	t.Helper()
	seen := make([]int, topo.NumSwitches)
	for i := range seen {
		seen[i] = -1
	}
	total := 0
	for sh := 0; sh < p.Shards; sh++ {
		members := p.Switches(sh)
		if len(members) == 0 {
			t.Fatalf("shard %d/%d empty", sh, p.Shards)
		}
		total += len(members)
		for _, sw := range members {
			if seen[sw] >= 0 {
				t.Fatalf("switch %d in shards %d and %d", sw, seen[sw], sh)
			}
			seen[sw] = sh
			if got := p.ShardOfSwitch(sw); got != sh {
				t.Fatalf("ShardOfSwitch(%d) = %d, listed in shard %d", sw, got, sh)
			}
		}
		// Connectivity of the induced subgraph: BFS from the first
		// member using only intra-shard links must reach every member.
		reached := map[int]bool{members[0]: true}
		queue := []int{members[0]}
		for len(queue) > 0 {
			sw := queue[0]
			queue = queue[1:]
			for _, nb := range topo.Neighbors(sw) {
				if p.ShardOfSwitch(nb.Switch) == sh && !reached[nb.Switch] {
					reached[nb.Switch] = true
					queue = append(queue, nb.Switch)
				}
			}
		}
		if len(reached) != len(members) {
			t.Fatalf("shard %d disconnected: reached %d of %d switches", sh, len(reached), len(members))
		}
	}
	if total != topo.NumSwitches {
		t.Fatalf("shards cover %d switches, topology has %d", total, topo.NumSwitches)
	}
	hostTotal := 0
	for sh := 0; sh < p.Shards; sh++ {
		hostTotal += len(p.Hosts(sh))
	}
	if hostTotal != topo.NumHosts() {
		t.Fatalf("shards cover %d hosts, topology has %d", hostTotal, topo.NumHosts())
	}
	for h := 0; h < topo.NumHosts(); h++ {
		sw, _ := topo.HostSwitch(h)
		if p.ShardOfHost(h) != p.ShardOfSwitch(sw) {
			t.Fatalf("host %d in shard %d, its switch %d in shard %d",
				h, p.ShardOfHost(h), sw, p.ShardOfSwitch(sw))
		}
	}
}

// TestPartitionInvariants: connected, exact-cover, non-empty shards
// across all three topology classes and a spread of shard counts —
// including counts that do NOT divide the natural unit count, which
// exercise the BFS-carving fallback.
func TestPartitionInvariants(t *testing.T) {
	topos := map[string]*topology.Topology{}
	for _, k := range []int{4, 8, 16} {
		topo, err := topology.GenerateFatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		topos[fmt.Sprintf("fattree-k%d", k)] = topo
	}
	for _, s := range [][3]int{{4, 2, 2}, {8, 4, 4}} {
		topo, err := topology.GenerateDragonfly(s[0], s[1], s[2])
		if err != nil {
			t.Fatal(err)
		}
		topos[fmt.Sprintf("dragonfly-a%d-p%d-h%d", s[0], s[1], s[2])] = topo
	}
	for _, n := range []int{2, 7, 16, 32} {
		topo, err := topology.Generate(n, 42)
		if err != nil {
			t.Fatal(err)
		}
		topos[fmt.Sprintf("irregular-%d", n)] = topo
	}
	for name, topo := range topos {
		for _, shards := range []int{1, 2, 3, 4, 5, 8, 16} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				p, err := topology.PartitionFabric(topo, shards)
				if shards > topo.NumSwitches {
					if !errors.Is(err, topology.ErrShardCount) {
						t.Fatalf("%d shards on %d switches: err = %v, want ErrShardCount", shards, topo.NumSwitches, err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if p.Shards != shards {
					t.Fatalf("partitioned into %d shards, want %d", p.Shards, shards)
				}
				checkPartitionInvariants(t, topo, p)
			})
		}
	}
}

// TestPartitionFatTreePodBoundaries: when shards divides k, every pod
// lands whole in one shard and consecutive pods fill consecutive
// shards.
func TestPartitionFatTreePodBoundaries(t *testing.T) {
	for _, tc := range [][2]int{{4, 2}, {8, 2}, {8, 4}, {8, 8}, {16, 4}} {
		k, shards := tc[0], tc[1]
		topo, err := topology.GenerateFatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		p, err := topology.PartitionFabric(topo, shards)
		if err != nil {
			t.Fatal(err)
		}
		checkPartitionInvariants(t, topo, p)
		l, _ := topology.NewFatTreeLayout(k)
		podsPer := k / shards
		for pod := 0; pod < k; pod++ {
			want := pod / podsPer
			for e := 0; e < l.Half; e++ {
				if got := p.ShardOfSwitch(l.Edge(pod, e)); got != want {
					t.Fatalf("k=%d shards=%d: edge(%d,%d) in shard %d, want %d", k, shards, pod, e, got, want)
				}
			}
			for a := 0; a < l.Half; a++ {
				if got := p.ShardOfSwitch(l.Agg(pod, a)); got != want {
					t.Fatalf("k=%d shards=%d: agg(%d,%d) in shard %d, want %d", k, shards, pod, a, got, want)
				}
			}
		}
	}
}

// TestPartitionDragonflyGroupBoundaries: when shards divides the group
// count G = a*h+1, every group lands whole in one shard.
func TestPartitionDragonflyGroupBoundaries(t *testing.T) {
	// (a=4, h=2) gives G=9, divisible by 3; (a=2, h=2) gives G=5.
	for _, tc := range [][4]int{{4, 2, 2, 3}, {4, 2, 2, 9}, {2, 2, 2, 5}} {
		a, pp, h, shards := tc[0], tc[1], tc[2], tc[3]
		topo, err := topology.GenerateDragonfly(a, pp, h)
		if err != nil {
			t.Fatal(err)
		}
		part, err := topology.PartitionFabric(topo, shards)
		if err != nil {
			t.Fatal(err)
		}
		checkPartitionInvariants(t, topo, part)
		l, _ := topology.NewDragonflyLayout(a, pp, h)
		groupsPer := l.G / shards
		for g := 0; g < l.G; g++ {
			want := g / groupsPer
			for i := 0; i < a; i++ {
				if got := part.ShardOfSwitch(l.Switch(g, i)); got != want {
					t.Fatalf("(%d,%d,%d) shards=%d: switch (%d,%d) in shard %d, want %d",
						a, pp, h, shards, g, i, got, want)
				}
			}
		}
	}
}

// TestPartitionDeterministicAndBounded: same inputs give the same
// partition, and shard counts below 1 or above the switch count are
// rejected.
func TestPartitionDeterministicAndBounded(t *testing.T) {
	topo, err := topology.Generate(24, 7)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := topology.PartitionFabric(topo, 5)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := topology.PartitionFabric(topo, 5)
	if err != nil {
		t.Fatal(err)
	}
	for sh := 0; sh < 5; sh++ {
		if !reflect.DeepEqual(p1.Switches(sh), p2.Switches(sh)) {
			t.Fatalf("shard %d differs across runs: %v vs %v", sh, p1.Switches(sh), p2.Switches(sh))
		}
	}
	if _, err := topology.PartitionFabric(topo, 0); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := topology.PartitionFabric(topo, topo.NumSwitches+1); !errors.Is(err, topology.ErrShardCount) {
		t.Errorf("%d shards on %d switches: err = %v, want ErrShardCount", topo.NumSwitches+1, topo.NumSwitches, err)
	}
	all, err := topology.PartitionFabric(topo, topo.NumSwitches)
	if err != nil {
		t.Fatal(err)
	}
	checkPartitionInvariants(t, topo, all)
	if p, err := topology.PartitionFabric(topo, 1); err != nil || p.Shards != 1 {
		t.Fatalf("single shard: %v, %+v", err, p)
	}
}
