package routing

import (
	"fmt"

	"repro/internal/topology"
)

// computeDragonfly fills minimal forwarding tables for the canonical
// dragonfly: at most one local hop to the switch owning the global
// channel toward the destination group, one global hop, and at most
// one local hop inside the destination group.
//
// Minimal routing alone deadlocks — the local-global-local chain
// closes cycles through the fully connected groups — so the engine
// claims two VL planes (escape VLs, after the dragonfly literature):
// a packet travels on plane 0 until its global hop and shifts to plane
// 1 for hops inside the destination group.  Every channel dependency
// then points forward through the strict order
//
//	(local, plane 0) -> (global, plane 0) -> (local, plane 1)
//
// and minimal routes use at most one channel of each stage, so the
// channel-dependency graph is acyclic (cdg.Verify machine-checks
// this).  The plane is a function of (current switch, destination
// group) only, so forwarding stays destination-based: planeToSwitch
// returns 1 exactly when the packet is already in the destination
// group.
func computeDragonfly(topo *topology.Topology) (*Routes, error) {
	sp := topo.Spec
	l, err := topology.NewDragonflyLayout(sp.A, sp.P, sp.H)
	if err != nil {
		return nil, err
	}
	if l.NumSwitches() != topo.NumSwitches {
		return nil, fmt.Errorf("routing: dragonfly (%d,%d,%d) implies %d switches, topology has %d",
			sp.A, sp.P, sp.H, l.NumSwitches(), topo.NumSwitches)
	}
	n := topo.NumSwitches
	r := newRoutes(topo, 2)
	r.groupOf = make([]int, n)
	for s := range r.groupOf {
		r.groupOf[s], _ = l.Group(s)
	}

	for s := 0; s < n; s++ {
		gs, is := l.Group(s)
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			gd, id := l.Group(d)
			if gs == gd {
				r.next[s][d] = l.LocalPort(is, id)
				continue
			}
			c := l.GlobalChannel(gs, gd)
			if owner := c / l.H; owner != is {
				r.next[s][d] = l.LocalPort(is, owner)
			} else {
				r.next[s][d] = l.GlobalPort(c % l.H)
			}
		}
	}
	return r, nil
}
