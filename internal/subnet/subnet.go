// Package subnet models the InfiniBand control plane that deploys the
// paper's proposal: the subnet manager (SM) that discovers the fabric,
// assigns local identifiers, programs the forwarding tables, and
// distributes the SLtoVL mappings and VL arbitration tables to every
// port.  The paper assumes this machinery ("the number of VLs used by
// a port is configured by the subnet manager", section 2.1); this
// package makes its cost explicit.  The manager also reacts to
// failures (recovery.go): it detects dead ports, repairs and proves the
// routes, re-admits the displaced connections through its in-band
// programmer, and hands the repaired routes to the data plane
// (fabric.Network.Reroute).
//
// Costs are accounted in subnet management packets (SMPs, one MAD
// each): real SMs are bounded by MAD round trips, so the counts are
// the architecture-level metric.  Each MAD round trip is also assigned
// a latency from the path length so a total (re)configuration time can
// be reported on the simulator's byte-time clock.
package subnet

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/mad"
	"repro/internal/routing"
	"repro/internal/sl"
	"repro/internal/topology"
)

// MAD cost model: a subnet management packet is one 256-byte MAD; a
// round trip crosses the path twice with per-hop forwarding latency.
const (
	madWireBytes = 256 + sl.HeaderBytes
	hopLatencyBT = 20 // same forwarding latency the fabric uses
	lidsPerBlock = 64 // LinearForwardingTable block size (IBA 1.0)
)

// Costs accumulates control-plane effort.
type Costs struct {
	MADs        int   `json:"mads"`
	TimeBT      int64 `json:"timeBT"` // total serialized MAD round-trip time, byte times
	Devices     int   `json:"devices"`
	SwitchPorts int   `json:"switchPorts"`
}

// addMAD accounts one SMP round trip to a device at the given hop
// distance from the subnet manager.
func (c *Costs) addMAD(hops int) {
	c.MADs++
	c.TimeBT += 2 * int64(hops) * (madWireBytes + hopLatencyBT)
}

// Manager is the subnet manager: it owns the control-plane view of one
// fabric.
//
// Its hop distances — what every MAD is charged — are tables, not
// searches: the BFS depth of every switch from HomeSwitch, and for
// switches with hosts the length of the routed path from the SM's
// host.  They are keyed on the (Topo, HomeSwitch, Routes) values they
// were derived from and re-derived when one of the three is reassigned.
type Manager struct {
	// Topo is the fabric as the manager sees it.  It must not be
	// mutated in place once distances have been asked for (the tables
	// would go stale unnoticed); recovery reassigns it, with Routes, to
	// a degraded Clone at every activation.
	Topo   *topology.Topology
	Routes *routing.Routes
	// HomeSwitch is the switch the SM's host hangs off (host 0).
	HomeSwitch int

	// lids[i] is the LID assigned to switch i (hosts use
	// NumSwitches+host).  Exposed for inspection.
	lids []int

	dist distances
}

// distances are a Manager's hop-distance tables and the inputs they
// were computed from.
type distances struct {
	topo   *topology.Topology
	home   int
	routes *routing.Routes

	// depth[sw] is the unweighted distance from home to sw over topo,
	// NumSwitches when unreachable.
	depth []int
	// routed[sw] is the SM's hop distance to sw over routes; nil until
	// routes are known.
	routed []int
}

// NewManager returns a manager for the fabric; Discover must run
// before the programming phases.
func NewManager(topo *topology.Topology) *Manager {
	return &Manager{Topo: topo, HomeSwitch: 0}
}

// tables returns the distance tables for the manager's current Topo,
// HomeSwitch and Routes, rebuilding whichever a reassignment outdated:
// one breadth-first search for the depths, one routed path per hosted
// switch for the routed distances.
func (m *Manager) tables() *distances {
	d := &m.dist
	if d.depth == nil || d.topo != m.Topo || d.home != m.HomeSwitch {
		*d = distances{topo: m.Topo, home: m.HomeSwitch, depth: m.Topo.Distances(m.HomeSwitch)}
		for sw, h := range d.depth {
			if h < 0 {
				d.depth[sw] = m.Topo.NumSwitches
			}
		}
	}
	if m.Routes != nil && (d.routed == nil || d.routes != m.Routes) {
		d.routes = m.Routes
		d.routed = make([]int, m.Topo.NumSwitches)
		for sw := range d.routed {
			d.routed[sw] = m.routedHops(sw, d.depth)
		}
	}
	return d
}

// routedHops computes one entry of the routed-distance table.
func (m *Manager) routedHops(sw int, depth []int) int {
	h := m.Topo.HostAt(sw, 0)
	if h < 0 {
		// Host-less switch (fat-tree aggregation or core): no routed
		// host path ends there, so charge the BFS depth directly.
		return 1 + depth[sw]
	}
	// Use the routed path from the SM's host to any host on sw.
	path, err := m.Routes.PathSwitches(0, h)
	if err != nil {
		return m.Topo.NumSwitches
	}
	return len(path)
}

// depthTo returns the unweighted distance from the home switch to sw.
func (m *Manager) depthTo(sw int) int { return m.tables().depth[sw] }

// hopsTo returns the SM's hop distance to a switch (BFS level metric
// over the current routes).
func (m *Manager) hopsTo(sw int) int {
	if m.Routes == nil {
		return 1
	}
	return m.tables().routed[sw]
}

// Discover sweeps the fabric like a real SM: it reads every device's
// node and port state (one MAD per device plus one per active switch
// port), then assigns LIDs and computes the routes of the fabric's
// class (routing.ComputeFor), the same tables the fabric forwards on.
func (m *Manager) Discover() (Costs, error) {
	var c Costs
	if !m.Topo.Connected() {
		return c, fmt.Errorf("subnet: fabric is not connected")
	}

	// Sweep.  During discovery routes do not exist yet; direct-routed
	// SMPs walk the breadth-first path from the home switch, so a
	// device's hop cost is its depth.  The costs are sums, so the
	// order devices are probed in does not matter.
	// The sweep builds and parses byte-exact MADs: what a device
	// "answers" is an encoded attribute that the SM decodes, so the
	// control-plane state provably survives the wire format.
	probeNode := func(info mad.NodeInfo, depth int) error {
		c.Devices++
		c.addMAD(depth)
		got, err := mad.DecodeNodeInfo(mad.EncodeNodeInfo(info))
		if err != nil {
			return err
		}
		if got != info {
			return fmt.Errorf("subnet: NodeInfo corrupted on the wire: %+v != %+v", got, info)
		}
		return nil
	}
	probePort := func(info mad.PortInfo, depth int) error {
		c.addMAD(depth)
		got, err := mad.DecodePortInfo(mad.EncodePortInfo(info))
		if err != nil {
			return err
		}
		if got != info {
			return fmt.Errorf("subnet: PortInfo corrupted on the wire: %+v != %+v", got, info)
		}
		return nil
	}

	for sw := 0; sw < m.Topo.NumSwitches; sw++ {
		depth := 1 + m.depthTo(sw)
		if err := probeNode(mad.NodeInfo{
			NodeType: mad.NodeTypeSwitch, NumPorts: uint8(m.Topo.Ports()),
			GUID: uint64(sw) + 1, LID: uint16(sw) + 1,
		}, depth); err != nil {
			return c, err
		}
		for range m.Topo.Neighbors(sw) {
			c.SwitchPorts++
			if err := probePort(mad.PortInfo{
				LID: uint16(sw) + 1, PortState: mad.PortStateActive,
				NeighborMTU: mad.MTUCode(4096), VLCap: 15, OperationalVLs: 15,
			}, depth); err != nil {
				return c, err
			}
		}
	}
	// Hosts: one NodeInfo + PortInfo each.
	for h := 0; h < m.Topo.NumHosts(); h++ {
		sw, _ := m.Topo.HostSwitch(h)
		depth := 1 + m.depthTo(sw)
		if err := probeNode(mad.NodeInfo{
			NodeType: mad.NodeTypeCA, NumPorts: 1,
			GUID: uint64(m.Topo.NumSwitches + h + 1), LID: uint16(m.Topo.NumSwitches + h + 1),
		}, depth); err != nil {
			return c, err
		}
		if err := probePort(mad.PortInfo{
			LID: uint16(m.Topo.NumSwitches + h + 1), PortState: mad.PortStateActive,
			NeighborMTU: mad.MTUCode(4096), VLCap: 15, OperationalVLs: 15,
		}, depth); err != nil {
			return c, err
		}
	}

	// LID assignment is bookkeeping on the SM; the set is written with
	// the PortInfo MADs already counted.
	m.lids = make([]int, m.Topo.NumSwitches)
	for i := range m.lids {
		m.lids[i] = i + 1
	}

	routes, err := routing.ComputeFor(m.Topo)
	if err != nil {
		return c, err
	}
	m.Routes = routes
	return c, nil
}

// ProgramForwarding distributes the linear forwarding tables: each
// switch needs one MAD per block of 64 destination LIDs.
func (m *Manager) ProgramForwarding() (Costs, error) {
	var c Costs
	if m.Routes == nil {
		return c, fmt.Errorf("subnet: discover before programming")
	}
	destinations := m.Topo.NumSwitches + m.Topo.NumHosts()
	blocks := (destinations + lidsPerBlock - 1) / lidsPerBlock
	for s := 0; s < m.Topo.NumSwitches; s++ {
		for b := 0; b < blocks; b++ {
			c.addMAD(m.hopsTo(s))
		}
	}
	return c, nil
}

// ProgramQoS distributes the QoS state the paper's proposal needs: per
// switch port and per host interface, one Set(SLtoVLMappingTable) SMP
// and four Set(VLArbitrationTable) SMPs (the 64-entry high-priority
// table travels in four blocks of 16 entries, one transaction).  The
// SMPs are built with the real wire encodings from the mad package, so
// what this function "sends" is byte-exact management traffic.
func (m *Manager) ProgramQoS(ports *admission.Ports, mapping sl.Mapping) (Costs, error) {
	var c Costs
	if m.Routes == nil {
		return c, fmt.Errorf("subnet: discover before programming")
	}
	var tid uint64 = 1
	program := func(table *arbtable.Table, hops int) error {
		slvl := &mad.Packet{
			Header: mad.Header{
				BaseVersion: 1, MgmtClass: mad.ClassSubnLID, ClassVersion: 1,
				Method: mad.MethodSet, TID: tid, AttrID: mad.AttrSLtoVLMapping,
			},
			Data: mad.EncodeSLtoVL(mapping),
		}
		tid++
		if _, err := slvl.Marshal(); err != nil {
			return err
		}
		c.addMAD(hops)
		pkts, err := mad.HighTableSMPs(tid, table)
		if err != nil {
			return err
		}
		tid += uint64(len(pkts))
		for _, p := range pkts {
			if _, err := p.Marshal(); err != nil {
				return err
			}
			c.addMAD(hops)
		}
		return nil
	}
	for s := 0; s < m.Topo.NumSwitches; s++ {
		for p, pt := range ports.Switch[s] {
			if p >= topology.HostsPerSwitch && m.Topo.Peer(s, p).Switch < 0 {
				continue // unwired port
			}
			if err := program(pt.Allocator().Table(), m.hopsTo(s)); err != nil {
				return c, err
			}
		}
	}
	for h := 0; h < m.Topo.NumHosts(); h++ {
		sw, _ := m.Topo.HostSwitch(h)
		hops := 1 + m.depthTo(sw)
		if err := program(ports.Host[h].Allocator().Table(), hops); err != nil {
			return c, err
		}
	}
	return c, nil
}
