// Package topology models the switch networks the evaluation runs on.
// The paper's own evaluation uses randomly wired irregular networks of
// 8-port switches (section 4.1); this package keeps that generator and
// adds the structured classes production InfiniBand fabrics actually
// deploy — k-ary fat-trees and canonical dragonflies — behind a common
// Spec/constructor interface (spec.go).
//
// The host layout is table driven: every switch port either carries a
// host, carries an inter-switch link, or is unused.  The irregular
// generator attaches HostsPerSwitch hosts to the first ports of every
// switch (preserving the paper's numbering exactly); the structured
// generators attach hosts only where their class puts them (fat-tree
// edge switches, dragonfly router host ports).
package topology

import (
	"fmt"
	"math/rand"
)

const (
	// SwitchPorts is the maximum number of ports per switch — the
	// radix cap every generator must fit into and the size of every
	// per-port array.  A topology that wires only low ports reports
	// a smaller radix through Ports().
	SwitchPorts = 32
	// midPorts is the middle radix tier Ports() reports for shapes
	// that outgrow the 8-port switches but fit 16 ports (e.g. the
	// k=16 fat-tree).  Keeping the tier exact preserves those shapes'
	// radix-derived behavior — trace strides, probe scans — bit for
	// bit across raises of the SwitchPorts cap.
	midPorts = 16
	// IrregularPorts is the radix of the paper's irregular-class
	// switches (section 4.1 uses 8-port switches).  The irregular
	// generator never wires a port at or above it, which keeps its
	// rng draw sequence — and therefore every generated topology —
	// identical to the 8-port original.
	IrregularPorts = 8
	// HostsPerSwitch is the number of host ports per switch in the
	// IRREGULAR class (ports 0..HostsPerSwitch-1).  Structured classes
	// place hosts per their own layout; use HostAt/SwitchHosts instead
	// of assuming this is uniform.
	HostsPerSwitch = 4
	// InterPorts is the number of switch-to-switch ports of an
	// irregular-class switch.
	InterPorts = IrregularPorts - HostsPerSwitch
	// MaxIrregularSwitches is the largest irregular network Generate
	// builds: the size of the largest structured shape, the k =
	// SwitchPorts fat-tree (5k²/4 = 1 280 switches).  Routing keeps an
	// n × n next-hop table and proves all n² routes, so far larger sizes
	// do not come back (2 000 switches took 5 s to route, 8 000 did not
	// finish); they are refused instead.
	MaxIrregularSwitches = 5 * SwitchPorts * SwitchPorts / 4
)

// End identifies one side of a switch-to-switch link.
type End struct {
	Switch int
	Port   int
}

// Topology is a network of switches with hosts attached at known
// (switch, port) locations.
type Topology struct {
	NumSwitches int

	// Spec records how the topology was built (class and shape
	// parameters); routing dispatches its per-class engine on it.
	Spec Spec

	// peer[s][p] is the far end of the link on switch s port p;
	// Switch == -1 means no inter-switch link on the port.
	peer [][SwitchPorts]End
	// hostOf[s][p] is the host attached at switch s port p, -1 if none.
	hostOf [][SwitchPorts]int
	// hostLoc[h] is the (switch, port) host h is attached to.
	hostLoc []End

	// maxPort is the highest port index carrying a host or link, -1
	// when nothing is wired yet.  Ports() rounds it up to a radix.
	maxPort int
}

// Ports returns the switch radix of this topology: the smallest tier
// of {IrregularPorts, midPorts, SwitchPorts} that fits every wired
// port.  Radix-dependent consumers — trace-ID strides, subnet-
// management port scans, matching scratch sizing — key off this so
// small fabrics keep their 8-port behavior bit-for-bit (and 16-port
// shapes their 16-port behavior) while the largest structured shapes
// get the full radix.
func (t *Topology) Ports() int {
	switch {
	case t.maxPort < IrregularPorts:
		return IrregularPorts
	case t.maxPort < midPorts:
		return midPorts
	}
	return SwitchPorts
}

// notePort records a wired port for the Ports() high-water mark.
func (t *Topology) notePort(p int) {
	if p > t.maxPort {
		t.maxPort = p
	}
}

// NewManual returns an empty topology with the given number of
// switches: no links, no hosts.  Generators and test fixtures build on
// it with AttachHost and Connect.
func NewManual(numSwitches int) *Topology {
	t := &Topology{
		NumSwitches: numSwitches,
		Spec:        Spec{Class: Irregular, Switches: numSwitches},
		peer:        make([][SwitchPorts]End, numSwitches),
		hostOf:      make([][SwitchPorts]int, numSwitches),
		maxPort:     -1,
	}
	for s := 0; s < numSwitches; s++ {
		for p := 0; p < SwitchPorts; p++ {
			t.peer[s][p] = End{Switch: -1, Port: -1}
			t.hostOf[s][p] = -1
		}
	}
	return t
}

// AttachHost attaches the next host to switch sw's port and returns its
// index.  Hosts are numbered in attachment order.
func (t *Topology) AttachHost(sw, port int) (int, error) {
	if sw < 0 || sw >= t.NumSwitches || port < 0 || port >= SwitchPorts {
		return -1, fmt.Errorf("topology: no port %d:%d", sw, port)
	}
	if t.hostOf[sw][port] >= 0 || t.peer[sw][port].Switch >= 0 {
		return -1, fmt.Errorf("topology: port %d:%d already in use", sw, port)
	}
	h := len(t.hostLoc)
	t.hostOf[sw][port] = h
	t.hostLoc = append(t.hostLoc, End{Switch: sw, Port: port})
	t.notePort(port)
	return h, nil
}

// Connect wires switch a port pa to switch b port pb.
func (t *Topology) Connect(a, pa, b, pb int) error {
	for _, e := range []End{{a, pa}, {b, pb}} {
		if e.Switch < 0 || e.Switch >= t.NumSwitches || e.Port < 0 || e.Port >= SwitchPorts {
			return fmt.Errorf("topology: no port %d:%d", e.Switch, e.Port)
		}
		if t.hostOf[e.Switch][e.Port] >= 0 || t.peer[e.Switch][e.Port].Switch >= 0 {
			return fmt.Errorf("topology: port %d:%d already in use", e.Switch, e.Port)
		}
	}
	if a == b {
		return fmt.Errorf("topology: self-link on switch %d", a)
	}
	t.connect(a, pa, b, pb)
	return nil
}

// NumHosts returns the number of hosts in the network.
func (t *Topology) NumHosts() int { return len(t.hostLoc) }

// HostSwitch returns the switch and port a host is attached to.
func (t *Topology) HostSwitch(host int) (sw, port int) {
	e := t.hostLoc[host]
	return e.Switch, e.Port
}

// HostAt returns the host attached to the given switch port, or -1 if
// the port carries no host.
func (t *Topology) HostAt(sw, port int) int {
	if port < 0 || port >= SwitchPorts {
		return -1
	}
	return t.hostOf[sw][port]
}

// SwitchHosts returns the number of hosts attached to a switch.
func (t *Topology) SwitchHosts(sw int) int {
	n := 0
	for p := 0; p < SwitchPorts; p++ {
		if t.hostOf[sw][p] >= 0 {
			n++
		}
	}
	return n
}

// Peer returns the far end of an inter-switch port.  The returned
// End has Switch == -1 when the port is unconnected or a host port.
func (t *Topology) Peer(sw, port int) End {
	if port < 0 || port >= SwitchPorts {
		return End{Switch: -1, Port: -1}
	}
	return t.peer[sw][port]
}

// Wired reports whether a switch port carries anything (host or link).
func (t *Topology) Wired(sw, port int) bool {
	if port < 0 || port >= SwitchPorts {
		return false
	}
	return t.hostOf[sw][port] >= 0 || t.peer[sw][port].Switch >= 0
}

// Neighbors returns, for each connected inter-switch port of sw in
// ascending port order, the neighboring switch.
func (t *Topology) Neighbors(sw int) []End {
	var out []End
	for p := 0; p < SwitchPorts; p++ {
		if e := t.peer[sw][p]; e.Switch >= 0 {
			out = append(out, End{Switch: e.Switch, Port: p})
		}
	}
	return out
}

// connect wires switch a port pa to switch b port pb.
func (t *Topology) connect(a, pa, b, pb int) {
	t.peer[a][pa] = End{Switch: b, Port: pb}
	t.peer[b][pb] = End{Switch: a, Port: pa}
	t.notePort(pa)
	t.notePort(pb)
}

// freePort returns the lowest unused port of sw (no host, no link)
// below the irregular radix, or -1.  Only the irregular generator uses
// it, and capping the scan at IrregularPorts keeps that generator's
// wiring identical to the 8-port original.
func (t *Topology) freePort(sw int) int {
	for p := 0; p < IrregularPorts; p++ {
		if t.hostOf[sw][p] < 0 && t.peer[sw][p].Switch < 0 {
			return p
		}
	}
	return -1
}

// linked reports whether switches a and b are directly connected.
func (t *Topology) linked(a, b int) bool {
	for p := 0; p < SwitchPorts; p++ {
		if t.peer[a][p].Switch == b {
			return true
		}
	}
	return false
}

// Generate builds a random irregular topology with the given number of
// switches, reproducibly from the seed.  The construction first wires
// a random spanning tree (guaranteeing connectivity) and then adds
// random extra links between switches with free ports, avoiding
// duplicate links and self-links.  Every switch carries HostsPerSwitch
// hosts on its first ports, so host h sits on port h % HostsPerSwitch
// of switch h / HostsPerSwitch — the paper's numbering.
func Generate(numSwitches int, seed int64) (*Topology, error) {
	if numSwitches < 2 {
		return nil, fmt.Errorf("topology: need at least 2 switches, got %d", numSwitches)
	}
	if numSwitches > MaxIrregularSwitches {
		return nil, fmt.Errorf("topology: %d switches exceeds the irregular maximum of %d", numSwitches, MaxIrregularSwitches)
	}
	rng := rand.New(rand.NewSource(seed))
	t := NewManual(numSwitches)
	t.Spec = Spec{Class: Irregular, Switches: numSwitches, Seed: seed}
	for s := 0; s < numSwitches; s++ {
		for p := 0; p < HostsPerSwitch; p++ {
			if _, err := t.AttachHost(s, p); err != nil {
				return nil, err
			}
		}
	}

	// Random spanning tree: attach each switch (in random order) to a
	// random already-attached switch with a free port.
	order := rng.Perm(numSwitches)
	attached := []int{order[0]}
	for _, s := range order[1:] {
		// Collect attached switches with free ports.
		var candidates []int
		for _, a := range attached {
			if t.freePort(a) >= 0 {
				candidates = append(candidates, a)
			}
		}
		if len(candidates) == 0 {
			return nil, fmt.Errorf("topology: no free ports while building spanning tree (seed %d)", seed)
		}
		a := candidates[rng.Intn(len(candidates))]
		t.connect(s, t.freePort(s), a, t.freePort(a))
		attached = append(attached, s)
	}

	// Extra random links until no legal pair remains.
	for tries := 0; tries < numSwitches*InterPorts*10; tries++ {
		var free []int
		for s := 0; s < numSwitches; s++ {
			if t.freePort(s) >= 0 {
				free = append(free, s)
			}
		}
		if len(free) < 2 {
			break
		}
		a := free[rng.Intn(len(free))]
		b := free[rng.Intn(len(free))]
		if a == b || t.linked(a, b) {
			continue
		}
		t.connect(a, t.freePort(a), b, t.freePort(b))
	}
	return t, nil
}

// Validate checks structural consistency: links are symmetric, no port
// is double-booked, and the host tables agree with each other.  It
// makes no assumption about where hosts sit — a fat-tree core switch
// with zero hosts and an edge switch with hosts on arbitrary ports are
// both fine — which is what the structured generators require.
func (t *Topology) Validate() error {
	for s := 0; s < t.NumSwitches; s++ {
		for p := 0; p < SwitchPorts; p++ {
			e := t.peer[s][p]
			h := t.hostOf[s][p]
			if e.Switch >= 0 && h >= 0 {
				return fmt.Errorf("topology: switch %d port %d carries both host %d and link to %+v", s, p, h, e)
			}
			if h >= 0 {
				if h >= len(t.hostLoc) || t.hostLoc[h] != (End{Switch: s, Port: p}) {
					return fmt.Errorf("topology: host table mismatch at switch %d port %d (host %d)", s, p, h)
				}
			}
			if e.Switch < 0 {
				continue
			}
			if e.Switch >= t.NumSwitches || e.Port < 0 || e.Port >= SwitchPorts {
				return fmt.Errorf("topology: switch %d port %d points to invalid end %+v", s, p, e)
			}
			back := t.peer[e.Switch][e.Port]
			if back.Switch != s || back.Port != p {
				return fmt.Errorf("topology: asymmetric link %d:%d <-> %d:%d", s, p, e.Switch, e.Port)
			}
			if e.Switch == s {
				return fmt.Errorf("topology: self-link on switch %d", s)
			}
		}
	}
	for h, loc := range t.hostLoc {
		if loc.Switch < 0 || loc.Switch >= t.NumSwitches || loc.Port < 0 || loc.Port >= SwitchPorts {
			return fmt.Errorf("topology: host %d at invalid location %+v", h, loc)
		}
		if t.hostOf[loc.Switch][loc.Port] != h {
			return fmt.Errorf("topology: host %d location %+v not reflected in port table", h, loc)
		}
	}
	return nil
}

// Connected reports whether the switch graph is connected.
func (t *Topology) Connected() bool {
	if t.NumSwitches == 0 {
		return false
	}
	for _, d := range t.Distances(0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// Distances returns the hop count of the shortest path from switch
// from to every switch over the surviving links, -1 for switches it
// cannot reach.
func (t *Topology) Distances(from int) []int {
	dist := make([]int, t.NumSwitches)
	for i := range dist {
		dist[i] = -1
	}
	dist[from] = 0
	queue := []int{from}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, n := range t.Neighbors(s) {
			if dist[n.Switch] < 0 {
				dist[n.Switch] = dist[s] + 1
				queue = append(queue, n.Switch)
			}
		}
	}
	return dist
}

// Link is one undirected inter-switch link.
type Link struct {
	A, B End // A.Switch < B.Switch
}

// Links returns every inter-switch link exactly once, ordered by
// (A.Switch, A.Port).
func (t *Topology) Links() []Link {
	var out []Link
	for s := 0; s < t.NumSwitches; s++ {
		for p := 0; p < SwitchPorts; p++ {
			e := t.peer[s][p]
			if e.Switch > s || (e.Switch == s && e.Port > p) {
				out = append(out, Link{A: End{Switch: s, Port: p}, B: e})
			}
		}
	}
	return out
}

// Clone returns a deep copy of the topology.
func (t *Topology) Clone() *Topology {
	c := &Topology{
		NumSwitches: t.NumSwitches,
		Spec:        t.Spec,
		peer:        make([][SwitchPorts]End, t.NumSwitches),
		hostOf:      make([][SwitchPorts]int, t.NumSwitches),
		hostLoc:     make([]End, len(t.hostLoc)),
		maxPort:     t.maxPort,
	}
	copy(c.peer, t.peer)
	copy(c.hostOf, t.hostOf)
	copy(c.hostLoc, t.hostLoc)
	return c
}

// RemoveLink disconnects the inter-switch link attached to switch sw's
// port, modeling a link failure.  Both ends become unused ports.
func (t *Topology) RemoveLink(sw, port int) error {
	if sw < 0 || sw >= t.NumSwitches || port < 0 || port >= SwitchPorts || t.hostOf[sw][port] >= 0 {
		return fmt.Errorf("topology: no inter-switch port %d:%d", sw, port)
	}
	e := t.peer[sw][port]
	if e.Switch < 0 {
		return fmt.Errorf("topology: port %d:%d is not connected", sw, port)
	}
	t.peer[sw][port] = End{Switch: -1, Port: -1}
	t.peer[e.Switch][e.Port] = End{Switch: -1, Port: -1}
	return nil
}

// RemoveSwitch disconnects every inter-switch link of sw, modeling a
// switch crash in the degraded topology view.  The switch itself and
// its attached hosts stay in the tables (indexes remain stable; the
// hosts are simply unreachable), so routing can report them
// unreachable instead of renumbering the fabric.
func (t *Topology) RemoveSwitch(sw int) error {
	if sw < 0 || sw >= t.NumSwitches {
		return fmt.Errorf("topology: no switch %d", sw)
	}
	for p := 0; p < SwitchPorts; p++ {
		if t.peer[sw][p].Switch >= 0 {
			if err := t.RemoveLink(sw, p); err != nil {
				return err
			}
		}
	}
	return nil
}
