package topology

import (
	"errors"
	"fmt"
	"sort"
)

// Partition assigns every switch (and, through its attachment switch,
// every host) of a topology to one of N shards for parallel
// simulation.  Every shard is a non-empty connected subgraph of the
// switch graph, and the shards cover the switches exactly once — the
// invariants the sharded simulation core depends on (a disconnected
// shard would turn intra-shard traffic into cross-shard traffic and
// destroy the lookahead the sync protocol is built on).
//
// The partitioner is locality aware: fat-trees split on pod
// boundaries (plus contiguous blocks of the core layer), dragonflies
// on group boundaries, and everything else — including structured
// shapes whose natural unit count does not divide the shard count —
// falls back to carving a BFS spanning tree into balanced connected
// subtrees.  All paths are deterministic in (topology, shards).
type Partition struct {
	// Shards is the number of parts (1 <= Shards <= NumSwitches).
	Shards int

	shardOfSwitch []int
	shardOfHost   []int
	switches      [][]int // per shard, ascending switch ids
	hosts         [][]int // per shard, ascending host ids
}

// ShardOfSwitch returns the shard owning a switch.
func (p *Partition) ShardOfSwitch(sw int) int { return p.shardOfSwitch[sw] }

// ShardOfHost returns the shard owning a host (its switch's shard).
func (p *Partition) ShardOfHost(h int) int { return p.shardOfHost[h] }

// Switches returns the switch ids of one shard in ascending order.
// The returned slice is shared — don't mutate it.
func (p *Partition) Switches(shard int) []int { return p.switches[shard] }

// Hosts returns the host ids of one shard in ascending order.  The
// returned slice is shared — don't mutate it.
func (p *Partition) Hosts(shard int) []int { return p.hosts[shard] }

// ErrShardCount is the refusal of a shard count above the switch
// count: every shard must own at least one switch.
var ErrShardCount = errors.New("topology: more shards than switches")

// PartitionFabric splits a topology into the given number of shards.
// shards below 1 is an error, and so is shards above the switch count
// (ErrShardCount).
func PartitionFabric(t *Topology, shards int) (*Partition, error) {
	if shards < 1 {
		return nil, fmt.Errorf("topology: partition into %d shards", shards)
	}
	if shards > t.NumSwitches {
		return nil, fmt.Errorf("%w: %d shards, %d switches", ErrShardCount, shards, t.NumSwitches)
	}
	var shardOf []int
	switch {
	case shards == 1:
		shardOf = make([]int, t.NumSwitches)
	case t.Spec.Class == FatTree && t.Spec.K%shards == 0:
		shardOf = partitionFatTree(t.Spec.K, shards)
	case t.Spec.Class == Dragonfly:
		if l, err := NewDragonflyLayout(t.Spec.A, t.Spec.P, t.Spec.H); err == nil && l.G%shards == 0 {
			shardOf = partitionDragonfly(l, shards)
		}
	}
	if shardOf == nil {
		var err error
		shardOf, err = partitionBFS(t, shards)
		if err != nil {
			return nil, err
		}
	}
	p := &Partition{
		Shards:        shards,
		shardOfSwitch: shardOf,
		shardOfHost:   make([]int, t.NumHosts()),
		switches:      make([][]int, shards),
		hosts:         make([][]int, shards),
	}
	for sw, sh := range shardOf {
		p.switches[sh] = append(p.switches[sh], sw)
	}
	for h := range p.shardOfHost {
		sw, _ := t.HostSwitch(h)
		sh := shardOf[sw]
		p.shardOfHost[h] = sh
		p.hosts[sh] = append(p.hosts[sh], h)
	}
	for sh := 0; sh < shards; sh++ {
		if len(p.switches[sh]) == 0 {
			return nil, fmt.Errorf("topology: partition left shard %d/%d empty", sh, shards)
		}
	}
	return p, nil
}

// partitionFatTree splits a k-ary fat-tree on pod boundaries: shard i
// owns pods [i*k/S, (i+1)*k/S) — their edge and aggregation switches —
// plus a contiguous block of the core layer.  A shard holding several
// pods always receives at least one core ((k/2)^2 >= S whenever
// k/S >= 2), which joins its pods into one connected subgraph; a
// single-pod shard is connected through its own edge–agg links even
// with no cores.
func partitionFatTree(k, shards int) []int {
	l, err := NewFatTreeLayout(k)
	if err != nil {
		panic(fmt.Sprintf("topology: partitioning unbuildable fat-tree k=%d: %v", k, err))
	}
	shardOf := make([]int, l.NumSwitches())
	podsPer := k / shards
	for pod := 0; pod < k; pod++ {
		sh := pod / podsPer
		for e := 0; e < l.Half; e++ {
			shardOf[l.Edge(pod, e)] = sh
		}
		for a := 0; a < l.Half; a++ {
			shardOf[l.agg(pod, a)] = sh
		}
	}
	cores := l.Half * l.Half
	for c := 0; c < cores; c++ {
		// Contiguous blocks, same proportional split as the pods.
		sh := c * shards / cores
		a, cc := c/l.Half, c%l.Half
		shardOf[l.core(a, cc)] = sh
	}
	return shardOf
}

// partitionDragonfly splits a dragonfly on group boundaries: shard i
// owns groups [i*G/S, (i+1)*G/S).  Any set of whole groups is
// connected — a group is a local clique, and every pair of groups is
// joined by exactly one global link.
func partitionDragonfly(l DragonflyLayout, shards int) []int {
	shardOf := make([]int, l.NumSwitches())
	groupsPer := l.G / shards
	for g := 0; g < l.G; g++ {
		sh := g / groupsPer
		for i := 0; i < l.A; i++ {
			shardOf[l.switchID(g, i)] = sh
		}
	}
	return shardOf
}

// partitionBFS carves a BFS spanning tree of the switch graph into
// balanced connected subtrees: starting from the whole tree, the
// largest part is repeatedly split at the tree edge that most evenly
// divides it, until there are exactly `shards` parts.  Subtrees of a
// tree are connected, so every part is; the splits preserve exact
// cover.  Deterministic: BFS visits neighbors in port order and ties
// pick the lowest-numbered switch.
func partitionBFS(t *Topology, shards int) ([]int, error) {
	n := t.NumSwitches
	parent := make([]int, n)
	order := make([]int, 0, n) // BFS order, parents before children
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[0] = -1
	queue := []int{0}
	for len(queue) > 0 {
		sw := queue[0]
		queue = queue[1:]
		order = append(order, sw)
		for _, nb := range t.Neighbors(sw) {
			if parent[nb.Switch] == -2 {
				parent[nb.Switch] = sw
				queue = append(queue, nb.Switch)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("topology: partitioning a disconnected graph (%d of %d switches reachable)", len(order), n)
	}

	// part[sw] is the current part id; parts split in place by cutting
	// one tree edge: the subtree below the cut becomes a new part.
	part := make([]int, n)
	sizes := []int{n}
	for len(sizes) < shards {
		// Largest part; ties pick the lowest part id.
		largest := 0
		for id, sz := range sizes {
			if sz > sizes[largest] {
				largest = id
			}
		}
		if sizes[largest] < 2 {
			return nil, fmt.Errorf("topology: cannot split %d switches into %d connected parts", n, shards)
		}
		// Subtree sizes within the part: children accumulate into
		// parents in reverse BFS order, counting only same-part nodes
		// (earlier cuts detached their subtrees into other parts).
		sub := make([]int, n)
		for _, sw := range order {
			if part[sw] == largest {
				sub[sw] = 1
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			sw := order[i]
			if part[sw] != largest || parent[sw] < 0 || part[parent[sw]] != largest {
				continue
			}
			sub[parent[sw]] += sub[sw]
		}
		// Best cut: the in-part tree edge (sw, parent[sw]) whose
		// subtree size is closest to half the part, never the whole
		// part.  Ties pick the lowest switch id.
		target := sizes[largest] / 2
		cut, cutDist := -1, n+1
		for _, sw := range order {
			if part[sw] != largest || parent[sw] < 0 || part[parent[sw]] != largest {
				continue
			}
			d := sub[sw] - target
			if d < 0 {
				d = -d
			}
			if sub[sw] < sizes[largest] && d < cutDist {
				cut, cutDist = sw, d
			}
		}
		if cut < 0 {
			return nil, fmt.Errorf("topology: no splittable edge in part of %d switches", sizes[largest])
		}
		// Relabel the subtree under the cut as the new part.  A node is
		// below the cut iff walking parents inside the part reaches
		// cut; BFS order guarantees parents are relabeled first, so one
		// forward pass suffices.
		newID := len(sizes)
		moved := 0
		for _, sw := range order {
			if sw == cut {
				part[sw] = newID
				moved++
				continue
			}
			if part[sw] == largest && parent[sw] >= 0 && part[parent[sw]] == newID {
				part[sw] = newID
				moved++
			}
		}
		sizes[largest] -= moved
		sizes = append(sizes, moved)
	}

	// Renumber parts by their lowest switch id so the shard numbering
	// is stable and meaningful (shard 0 contains switch 0).
	first := make([]int, len(sizes))
	for id := range first {
		first[id] = n
	}
	for sw := n - 1; sw >= 0; sw-- {
		first[part[sw]] = sw
	}
	rank := make([]int, len(sizes))
	for i := range rank {
		rank[i] = i
	}
	sort.Slice(rank, func(a, b int) bool { return first[rank[a]] < first[rank[b]] })
	renum := make([]int, len(sizes))
	for newID, oldID := range rank {
		renum[oldID] = newID
	}
	shardOf := make([]int, n)
	for sw := range shardOf {
		shardOf[sw] = renum[part[sw]]
	}
	return shardOf, nil
}
