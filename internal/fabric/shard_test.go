package fabric

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// buildSharded creates a network over a generated structured topology
// with the given shard count.
func buildSharded(t *testing.T, spec topology.Spec, seed int64, shards int) *Network {
	t.Helper()
	topo, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(topo.NumSwitches, 256, seed)
	cfg.Shards = shards
	n, err := NewWithTopology(cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// loadSharded offers a deterministic mix of QoS connections and
// best-effort background — a pure function of (topology, seed), so
// every shard count sees identical traffic.
func loadSharded(t *testing.T, n *Network, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	hosts := n.Topo.NumHosts()
	levels := []int{3, 4, 6, 7}
	for i := 0; i < 2*hosts; i++ {
		src, dst := rng.Intn(hosts), rng.Intn(hosts)
		if src == dst {
			continue
		}
		conn, err := n.Adm.Admit(traffic.Request{
			Src: src, Dst: dst,
			Level: sl.DefaultLevels[levels[i%len(levels)]], Mbps: 4,
		})
		if err != nil {
			continue
		}
		n.AddConnection(conn)
	}
	for _, be := range traffic.BestEffortBackground(hosts, 200, seed+1) {
		n.AddBestEffort(be)
	}
	if len(n.Flows()) == 0 {
		t.Fatal("no flows attached")
	}
}

// TestParallelShardSmoke drives a four-shard fat-tree through the
// conservative-lookahead coordinator and checks the global invariants
// that the boundary protocol must preserve: packet conservation,
// boundary-mirror credit bounds, and no stale arrivals.  Run it under
// -race to check the window protocol really keeps shards disjoint.
func TestParallelShardSmoke(t *testing.T) {
	n := buildSharded(t, topology.Spec{Class: topology.FatTree, K: 4}, 3, 4)
	if !n.Parallel() {
		t.Fatal("4-shard fat-tree should run parallel")
	}
	if len(n.shards) != 4 {
		t.Fatalf("%d shards, want 4", len(n.shards))
	}
	loadSharded(t, n, 17)

	n.Start()
	n.StartMeasurement()
	n.Run(400_000)

	if n.Windows() == 0 {
		t.Error("no synchronization windows executed")
	}
	inj, del, _ := n.Totals()
	if inj == 0 || del == 0 {
		t.Fatalf("injected %d delivered %d: fabric idle", inj, del)
	}
	if err := n.CheckBuffers(); err != nil {
		t.Error(err)
	}
	if n.StaleArrivals() != 0 {
		t.Errorf("%d stale arrivals", n.StaleArrivals())
	}

	// Stop generation and drain: every injected packet must come out
	// (conservation is a quiescent invariant — in-flight arrivals on
	// the shard heaps are not "queued").
	n.StopGeneration()
	n.Run(1 << 40)
	if err := n.CheckConservation(); err != nil {
		t.Error(err)
	}
	inj, del, drop := n.Totals()
	if del+drop != inj {
		t.Errorf("after drain: injected %d != delivered %d + dropped %d", inj, del, drop)
	}
}

// TestParallelShardVBRPacing drives VBR flows from every host of a
// four-shard fat-tree, so the shards read the network's pacer table at
// once and each advances its own hosts' pacers (run it under -race).
// Generation depends only on the flows' phases and schedules, so each
// flow generates exactly as many packets as on one engine.
func TestParallelShardVBRPacing(t *testing.T) {
	generated := func(shards int) []int64 {
		n := buildSharded(t, topology.Spec{Class: topology.FatTree, K: 4}, 3, shards)
		if n.Parallel() != (shards > 1) {
			t.Fatalf("%d shards: Parallel() = %v", shards, n.Parallel())
		}
		rng := rand.New(rand.NewSource(41))
		hosts := n.Topo.NumHosts()
		for src := 0; src < hosts; src++ {
			dst := (src + 1 + rng.Intn(hosts-1)) % hosts
			conn, err := n.Adm.Admit(traffic.Request{Src: src, Dst: dst, Level: sl.DefaultLevels[5], Mbps: 16})
			if err != nil {
				t.Fatal(err)
			}
			n.AddVBRConnection(conn, 4, 8)
		}
		n.Start()
		n.Run(1_000_000)
		gen := make([]int64, len(n.Flows()))
		for i, f := range n.Flows() {
			gen[i] = f.genPkts
		}
		return gen
	}
	one, four := generated(1), generated(4)
	if !slices.Equal(one, four) {
		t.Errorf("packets generated per VBR flow: one engine %v, four shards %v", one, four)
	}
	if one[0] < 16 {
		t.Errorf("flow 0 generated %d packets, want at least two bursts", one[0])
	}
}

// TestParallelShardRunWhile checks the barrier-granularity condition:
// RunWhile must stop within one window of the condition turning false
// and leave the fabric consistent.
func TestParallelShardRunWhile(t *testing.T) {
	n := buildSharded(t, topology.Spec{Class: topology.FatTree, K: 4}, 5, 2)
	loadSharded(t, n, 23)
	n.Start()

	target := int64(500)
	n.RunWhile(func() bool {
		_, del, _ := n.Totals()
		return del < target && n.Now() < 2_000_000
	})
	_, del, _ := n.Totals()
	if del < target && n.Now() < 2_000_000 {
		t.Fatalf("RunWhile returned with %d delivered at t=%d", del, n.Now())
	}
	n.StopGeneration()
	n.Run(1 << 41)
	if err := n.CheckConservation(); err != nil {
		t.Error(err)
	}
}

// TestShardPoolsDoNotReallocateMidRun is the sizing regression for
// per-shard Grow: on the scale-grid fabrics, every shard engine's
// event-record pool must be pre-sized large enough that a loaded run
// never reallocates it.
func TestShardPoolsDoNotReallocateMidRun(t *testing.T) {
	specs := []topology.Spec{
		{Class: topology.FatTree, K: 4},
		{Class: topology.FatTree, K: 8},
		{Class: topology.Dragonfly, A: 4, P: 2, H: 2},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Label(), func(t *testing.T) {
			n := buildSharded(t, spec, 7, 4)
			loadSharded(t, n, 29)
			before := n.shardRecordCapacities()
			n.Start()
			n.Run(400_000)
			after := n.shardRecordCapacities()
			for i := range before {
				if after[i] != before[i] {
					t.Errorf("shard %d record pool grew %d -> %d mid-run",
						i, before[i], after[i])
				}
			}
		})
	}
}

// shardRecordCapacities returns each shard engine's event-record pool
// capacity, index = shard id.  The sizing regression test snapshots it
// before and after a run: per-shard Grow is meant to pre-size the pools
// so the hot path never reallocates mid-run.
func (n *Network) shardRecordCapacities() []int {
	caps := make([]int, len(n.shards))
	for i, sh := range n.shards {
		caps[i] = sh.eng.RecordCapacity()
	}
	return caps
}
