package routing

import (
	"fmt"

	"repro/internal/topology"
)

// computeFatTree fills destination-based up/down forwarding tables for
// a k-ary fat-tree.  Traffic to the edge switch (pod_d, e_d) climbs to
// the single core Core(e_d, pod_d mod k/2) — the destination-mod-k
// discipline: the aggregation position is chosen by the destination's
// edge index and the core column by its pod, so the (k/2)^2 cores are
// spread evenly over destinations and every packet to one destination
// converges deterministically.  Every path is a strict up* then down*
// sequence over the three levels (core 0, agg 1, edge 2), so the
// channel-dependency graph is acyclic on a single VL plane.
//
// Forwarding entries exist only for host-bearing (edge) destinations;
// next[s][d] stays -1 for aggregation and core destinations.
func computeFatTree(topo *topology.Topology) (*Routes, error) {
	l, err := topology.NewFatTreeLayout(topo.Spec.K)
	if err != nil {
		return nil, err
	}
	if l.NumSwitches() != topo.NumSwitches {
		return nil, fmt.Errorf("routing: fat-tree k=%d implies %d switches, topology has %d",
			l.K, l.NumSwitches(), topo.NumSwitches)
	}
	n := topo.NumSwitches
	r := newRoutes(topo, 1)
	for s := 0; s < n; s++ {
		switch {
		case s < l.K*l.Half:
			r.level[s] = 2 // edge
		case s < 2*l.K*l.Half:
			r.level[s] = 1 // aggregation
		} // cores stay at level 0
	}

	for podD := 0; podD < l.K; podD++ {
		for eD := 0; eD < l.Half; eD++ {
			d := l.Edge(podD, eD)
			coreCol := podD % l.Half
			for s := 0; s < n; s++ {
				if s == d {
					continue
				}
				if _, _, ok := l.IsEdge(s); ok {
					// Up to the aggregation switch at the destination's
					// edge position; it either turns down (same pod) or
					// climbs on to the destination's core.
					r.next[s][d] = l.Half + eD
					continue
				}
				if pod, _, ok := l.IsAgg(s); ok {
					if pod == podD {
						r.next[s][d] = eD // down to Edge(podD, eD)
					} else {
						r.next[s][d] = l.Half + coreCol // up to Core(a, coreCol)
					}
					continue
				}
				// Core: down to Agg(podD, a).
				r.next[s][d] = podD
			}
		}
	}
	return r, nil
}
