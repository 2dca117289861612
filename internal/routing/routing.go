// Package routing implements up*/down* routing for irregular networks,
// the standard deadlock-free routing for InfiniBand-era irregular
// topologies.  A breadth-first spanning tree rooted at switch 0 (on a
// degraded fabric, one per component, rooted at its lowest-numbered
// switch) assigns every link an "up" direction (toward the root); a legal
// route traverses zero or more up links followed by zero or more down
// links, which breaks all channel-dependency cycles.
//
// Forwarding is destination based, as in InfiniBand linear forwarding
// tables: each switch maps a destination switch to one output port.
// The tables follow the greedy-down discipline — a packet starts
// descending as soon as a pure-down path to the destination exists —
// which guarantees that every realized path is legal regardless of the
// packet's source.
package routing

import (
	"fmt"
	"math"

	"repro/internal/sl"
	"repro/internal/topology"
)

// Routes holds the forwarding state for one topology.
type Routes struct {
	topo *topology.Topology
	// level[s] is the BFS depth of switch s from its component's root
	// (up*/down* and fat-tree; all zero for the dragonfly).
	level []int
	// next[s][d] is the output port switch s uses toward destination
	// switch d (-1 when s == d or when no route is defined — structured
	// engines only populate host-bearing destinations).
	next [][]int
	// planes is the number of VL-escape planes the engine needs: 1 for
	// up*/down* and fat-tree, 2 for the dragonfly.  With planes > 1 the
	// SLtoVL mapping must be collapsed to sl.PlaneBaseVLs(planes) data
	// VLs and every hop's wire VL is HopVL(sw, dst, base).
	planes int
	// groupOf[s] is the dragonfly group of switch s (nil otherwise);
	// the escape plane is chosen by comparing it against the
	// destination's group.
	groupOf []int
}

// newRoutes returns a route set for topo on the given number of VL
// planes with every level 0 and every forwarding entry -1, for an
// engine to fill in.
func newRoutes(topo *topology.Topology, planes int) *Routes {
	n := topo.NumSwitches
	r := &Routes{topo: topo, level: make([]int, n), next: make([][]int, n), planes: planes}
	for s := range r.next {
		r.next[s] = make([]int, n)
		for d := range r.next[s] {
			r.next[s][d] = -1
		}
	}
	return r
}

// ComputeFor builds the deadlock-free forwarding tables matching the
// topology's class: up*/down* for irregular networks,
// destination-based up/down for fat-trees, minimal l-g-l with a VL
// escape plane for dragonflies.
func ComputeFor(topo *topology.Topology) (*Routes, error) {
	switch topo.Spec.Class {
	case topology.Irregular:
		if !topo.Connected() {
			return nil, fmt.Errorf("routing: topology is not connected")
		}
		return computeUpDown(topo, 1)
	case topology.FatTree:
		return computeFatTree(topo)
	case topology.Dragonfly:
		return computeDragonfly(topo)
	}
	return nil, fmt.Errorf("routing: unknown topology class %v", topo.Spec.Class)
}

// Planes returns the number of VL-escape planes the engine requires.
func (r *Routes) Planes() int {
	if r.planes < 1 {
		return 1
	}
	return r.planes
}

// BaseVLs returns the number of base data VLs the SLtoVL mapping may
// use under this engine (sl.PlaneBaseVLs of Planes).
func (r *Routes) BaseVLs() int { return sl.PlaneBaseVLs(r.Planes()) }

// planeToSwitch returns the VL plane a packet headed for destination
// switch dsw travels on when transmitted by switch sw.  Single-plane
// engines always return 0; the dragonfly returns 1 once the packet is
// inside the destination group (the escape plane that breaks the
// global/local dependency cycle).
func (r *Routes) planeToSwitch(sw, dsw int) int {
	if r.groupOf == nil {
		return 0
	}
	if r.groupOf[sw] == r.groupOf[dsw] {
		return 1
	}
	return 0
}

// HopVLToSwitch returns the wire VL of a packet with base VL base when
// transmitted by switch sw toward destination switch dsw.
func (r *Routes) HopVLToSwitch(sw, dsw int, base uint8) uint8 {
	return sl.PlaneVL(base, r.planeToSwitch(sw, dsw), r.Planes())
}

// HopVL returns the wire VL of a packet with base VL base when
// transmitted by switch sw toward destination host dstHost.  It is also
// the injection VL when sw is the source host's switch.
func (r *Routes) HopVL(sw, dstHost int, base uint8) uint8 {
	if r.groupOf == nil {
		return base // single plane: identity, the common fast path
	}
	dsw, _ := r.topo.HostSwitch(dstHost)
	return r.HopVLToSwitch(sw, dsw, base)
}

// NextPortToSwitch returns the output port switch sw uses toward
// destination switch dsw (-1 when sw == dsw or no route is defined).
func (r *Routes) NextPortToSwitch(sw, dsw int) int { return r.next[sw][dsw] }

// computeUpDown builds up*/down* forwarding tables over the topology's
// surviving links.  It is the package's one up*/down* engine: intact
// irregular fabrics reach it through ComputeFor, degraded fabrics of
// every class through Repair.  Each connected component takes its BFS
// levels from its lowest-numbered switch, and a destination in another
// component leaves its forwarding entries at -1.  planes is carried
// into the result so multi-plane fabrics keep their VL layout.
func computeUpDown(topo *topology.Topology, planes int) (*Routes, error) {
	r := newRoutes(topo, planes)
	for i := range r.level {
		r.level[i] = -1
	}
	for root := range r.level {
		if r.level[root] >= 0 {
			continue
		}
		for s, d := range topo.Distances(root) {
			if d >= 0 {
				r.level[s] = d
			}
		}
	}
	for d := range r.next {
		if err := r.computeDest(d); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// isUp reports whether traversing from a to b is an "up" move: toward
// the root, with switch index breaking ties between equal levels.
func (r *Routes) isUp(a, b int) bool {
	if r.level[b] != r.level[a] {
		return r.level[b] < r.level[a]
	}
	return b < a
}

// computeDest fills the forwarding column for destination switch d.
//
// downDist[s] is the length of the shortest pure-down path s -> d
// (infinite when none exists).  legal[s] is the shortest legal path
// length overall (infinite when s cannot reach d).  The forwarding
// rule at s:
//
//   - if a down neighbor continues a shortest pure-down path, descend;
//   - otherwise take the up link minimizing the remaining legal
//     distance.
//
// Ties choose the lowest port, making the tables deterministic.  A
// source with no legal path to d keeps next = -1; a reachable source
// without a usable port is an error (the relaxation and the port scan
// would disagree — a bug, not a failure mode).
func (r *Routes) computeDest(d int) error {
	n := r.topo.NumSwitches
	const inf = math.MaxInt

	// Pure-down distances: BFS from d expanding in reverse, i.e. from
	// x to each neighbor y such that y -> x is a down move.
	downDist := make([]int, n)
	for i := range downDist {
		downDist[i] = inf
	}
	downDist[d] = 0
	queue := []int{d}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, nb := range r.topo.Neighbors(x) {
			y := nb.Switch
			if downDist[y] == inf && !r.isUp(y, x) { // y -> x is down
				downDist[y] = downDist[x] + 1
				queue = append(queue, y)
			}
		}
	}

	// Legal distances: a path is up* then down*, so
	// legal(s) = min over x of (up-distance from s to x) + downDist[x]
	// where the up prefix climbs up links only.  A relaxation over the
	// up links seeded with the downDist values (multi-source shortest
	// paths with unit weights) suffices at these sizes.
	legal := make([]int, n)
	copy(legal, downDist)
	for changed := true; changed; {
		changed = false
		for s := 0; s < n; s++ {
			for _, nb := range r.topo.Neighbors(s) {
				if !r.isUp(s, nb.Switch) {
					continue // only up moves may precede the descent
				}
				if legal[nb.Switch] != inf && legal[nb.Switch]+1 < legal[s] {
					legal[s] = legal[nb.Switch] + 1
					changed = true
				}
			}
		}
	}

	for s := 0; s < n; s++ {
		if s == d || legal[s] == inf {
			continue // unreachable: leave next[s][d] = -1
		}
		best := -1
		// Prefer descending: any down neighbor on a shortest pure-down
		// path.
		if downDist[s] != inf {
			for _, nb := range r.topo.Neighbors(s) {
				if !r.isUp(s, nb.Switch) && downDist[nb.Switch] == downDist[s]-1 {
					best = nb.Port
					break // neighbors are in ascending port order
				}
			}
		}
		if best < 0 {
			bestDist := inf
			for _, nb := range r.topo.Neighbors(s) {
				if !r.isUp(s, nb.Switch) {
					continue
				}
				if legal[nb.Switch] != inf && legal[nb.Switch]+1 < bestDist {
					bestDist = legal[nb.Switch] + 1
					best = nb.Port
				}
			}
		}
		if best < 0 {
			return fmt.Errorf("routing: switch %d has no usable port toward %d", s, d)
		}
		r.next[s][d] = best
	}
	return nil
}

// NextPort returns the output port switch sw uses for a packet whose
// destination is host dst.  When the host is attached to sw the host
// port itself is returned.
func (r *Routes) NextPort(sw, dstHost int) int {
	dsw, dport := r.topo.HostSwitch(dstHost)
	if dsw == sw {
		return dport
	}
	return r.next[sw][dsw]
}

// Level returns the BFS level of a switch (root is 0).
func (r *Routes) Level(sw int) int { return r.level[sw] }

// PathSwitches returns the sequence of switches a packet visits from
// the source host's switch to the destination host's switch,
// inclusive.  It follows the forwarding tables, so its length is the
// hop count admission control must account for.
func (r *Routes) PathSwitches(srcHost, dstHost int) ([]int, error) {
	s, _ := r.topo.HostSwitch(srcHost)
	d, _ := r.topo.HostSwitch(dstHost)
	// Room for the longest minimal route of a fat-tree or dragonfly, so
	// that the usual path is one allocation; longer ones regrow.
	path := make([]int, 1, 8)
	path[0] = s
	for s != d {
		p := r.next[s][d]
		if p < 0 {
			return nil, fmt.Errorf("routing: no route from switch %d to %d", s, d)
		}
		e := r.topo.Peer(s, p)
		if e.Switch < 0 {
			return nil, fmt.Errorf("routing: forwarding from switch %d uses dead port %d", s, p)
		}
		s = e.Switch
		path = append(path, s)
		if len(path) > r.topo.NumSwitches+1 {
			return nil, fmt.Errorf("routing: loop detected from host %d to %d", srcHost, dstHost)
		}
	}
	return path, nil
}

// Hop is one arbitration point of a host-to-host path: the
// transmitting element (the source host interface when Switch is -1,
// a switch output port otherwise) and the wire VL a packet with the
// given base VL occupies on the link it transmits into.
type Hop struct {
	Switch int   // transmitting switch, -1 for the source host interface
	Port   int   // output port within the switch, -1 for the host interface
	WireVL uint8 // lane occupied on the hop's outgoing link
}

// PathHops returns the arbitration points of a route in order — the
// source host interface, then each switch's output port along the path
// (the last one being the destination host port) — each annotated with
// the wire VL a packet of the given base VL travels on there (the base
// shifted into the routing engine's escape plane, identity for
// single-plane engines).  Admission control reserves weight at exactly
// these sites, and the analytical capacity planner accumulates offered
// load over them, so the two agree on the path by construction.
func (r *Routes) PathHops(srcHost, dstHost int, base uint8) ([]Hop, error) {
	// Room for the longest minimal route of a fat-tree or dragonfly, so
	// that the usual path is one allocation; longer ones regrow.
	return r.AppendPathHops(make([]Hop, 0, 8), srcHost, dstHost, base)
}

// AppendPathHops appends the arbitration points PathHops returns to
// dst, walking the forwarding tables once, so a caller that keeps dst
// across calls routes without allocating.  On error dst is returned at
// its original length.
func (r *Routes) AppendPathHops(dst []Hop, srcHost, dstHost int, base uint8) ([]Hop, error) {
	s, _ := r.topo.HostSwitch(srcHost)
	d, dport := r.topo.HostSwitch(dstHost)
	start := len(dst)
	// The injection VL matches the first switch hop's plane.
	dst = append(dst, Hop{Switch: -1, Port: -1, WireVL: r.HopVL(s, dstHost, base)})
	for s != d {
		p := r.next[s][d]
		if p < 0 {
			return dst[:start], fmt.Errorf("routing: no route from switch %d to %d", s, d)
		}
		e := r.topo.Peer(s, p)
		if e.Switch < 0 {
			return dst[:start], fmt.Errorf("routing: forwarding from switch %d uses dead port %d", s, p)
		}
		dst = append(dst, Hop{Switch: s, Port: p, WireVL: r.HopVL(s, dstHost, base)})
		s = e.Switch
		if len(dst)-start > r.topo.NumSwitches+1 {
			return dst[:start], fmt.Errorf("routing: loop detected from host %d to %d", srcHost, dstHost)
		}
	}
	return append(dst, Hop{Switch: d, Port: dport, WireVL: r.HopVL(d, dstHost, base)}), nil
}

// CheckLegal verifies that every switch-to-switch route follows the
// up*/down* rule (no up move after a down move) and terminates.  Used
// by tests and the simulator's self-checks.
func (r *Routes) CheckLegal() error {
	n := r.topo.NumSwitches
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			cur := s
			wentDown := false
			for steps := 0; cur != d; steps++ {
				if steps > n {
					return fmt.Errorf("routing: route %d->%d does not terminate", s, d)
				}
				p := r.next[cur][d]
				e := r.topo.Peer(cur, p)
				if e.Switch < 0 {
					return fmt.Errorf("routing: route %d->%d hits dead port at %d", s, d, cur)
				}
				up := r.isUp(cur, e.Switch)
				if up && wentDown {
					return fmt.Errorf("routing: route %d->%d goes up after down at switch %d", s, d, cur)
				}
				if !up {
					wentDown = true
				}
				cur = e.Switch
			}
		}
	}
	return nil
}
