package topology

import "fmt"

// FatTreeLayout fixes the switch numbering and port roles of a k-ary
// three-level fat-tree so the routing engine can address it
// arithmetically:
//
//	edge switches:  Edge(pod, e) = pod*k/2 + e            (hosts below)
//	agg switches:   agg(pod, a)  = k*k/2 + pod*k/2 + a
//	core switches:  core(a, c)   = 2*k*k/2 + a*k/2 + c
//
// Edge switch ports 0..k/2-1 carry hosts; port k/2+a goes up to
// agg(pod, a).  Agg switch port e goes down to Edge(pod, e); port
// k/2+c goes up to core(a, c).  Core switch port pod goes down to
// agg(pod, a).  Hosts are numbered pod-major, edge-minor, port-minor,
// so host = pod*(k/2)^2 + e*(k/2) + hp.
type FatTreeLayout struct {
	K    int // arity
	Half int // k/2
}

// NewFatTreeLayout validates k and returns the layout.  k must be even
// (each switch splits its ports evenly up/down) and fit the radix:
// edge and agg switches use exactly k ports, so k <= SwitchPorts.
func NewFatTreeLayout(k int) (FatTreeLayout, error) {
	if k < 2 || k > SwitchPorts || k%2 != 0 {
		return FatTreeLayout{}, fmt.Errorf("topology: fat-tree arity k=%d must be even and in [2, %d]", k, SwitchPorts)
	}
	return FatTreeLayout{K: k, Half: k / 2}, nil
}

// NumSwitches returns the total switch count: k pods of k/2 edge and
// k/2 agg switches plus (k/2)^2 cores — 5k^2/4.
func (l FatTreeLayout) NumSwitches() int { return 2*l.K*l.Half + l.Half*l.Half }

// Edge returns the switch index of edge switch e in pod.
func (l FatTreeLayout) Edge(pod, e int) int { return pod*l.Half + e }

// agg returns the switch index of aggregation switch a in pod.
func (l FatTreeLayout) agg(pod, a int) int { return l.K*l.Half + pod*l.Half + a }

// core returns the switch index of core switch (a, c): the c-th core
// reachable from aggregation position a of every pod.
func (l FatTreeLayout) core(a, c int) int { return 2*l.K*l.Half + a*l.Half + c }

// IsEdge reports whether sw is an edge switch and returns its (pod, e).
func (l FatTreeLayout) IsEdge(sw int) (pod, e int, ok bool) {
	if sw < 0 || sw >= l.K*l.Half {
		return 0, 0, false
	}
	return sw / l.Half, sw % l.Half, true
}

// IsAgg reports whether sw is an aggregation switch and returns its
// (pod, a).
func (l FatTreeLayout) IsAgg(sw int) (pod, a int, ok bool) {
	i := sw - l.K*l.Half
	if i < 0 || i >= l.K*l.Half {
		return 0, 0, false
	}
	return i / l.Half, i % l.Half, true
}

// GenerateFatTree builds the k-ary fat-tree.  The wiring is fully
// deterministic — no seed.
func GenerateFatTree(k int) (*Topology, error) {
	l, err := NewFatTreeLayout(k)
	if err != nil {
		return nil, err
	}
	t := NewManual(l.NumSwitches())
	t.Spec = Spec{Class: FatTree, K: k}
	// Hosts on edge switches, ports 0..k/2-1, in pod-major order: host
	// h sits on port h%(k/2) of edge switch h/(k/2), in pod
	// h/(k/2)^2.
	for pod := 0; pod < l.K; pod++ {
		for e := 0; e < l.Half; e++ {
			for hp := 0; hp < l.Half; hp++ {
				if _, err := t.AttachHost(l.Edge(pod, e), hp); err != nil {
					return nil, err
				}
			}
		}
	}
	// Edge <-> agg: edge up-port k/2+a meets agg down-port e.
	for pod := 0; pod < l.K; pod++ {
		for e := 0; e < l.Half; e++ {
			for a := 0; a < l.Half; a++ {
				if err := t.Connect(l.Edge(pod, e), l.Half+a, l.agg(pod, a), e); err != nil {
					return nil, err
				}
			}
		}
	}
	// Agg <-> core: agg up-port k/2+c meets core port pod.
	for pod := 0; pod < l.K; pod++ {
		for a := 0; a < l.Half; a++ {
			for c := 0; c < l.Half; c++ {
				if err := t.Connect(l.agg(pod, a), l.Half+c, l.core(a, c), pod); err != nil {
					return nil, err
				}
			}
		}
	}
	return t, nil
}
