package subnet

import (
	"testing"

	"repro/internal/admission"
	"repro/internal/routing"
	"repro/internal/topology"
)

// refBFSDepth is the retired per-call search: the unweighted distance
// between two switches, found by a fresh breadth-first search that
// stops at the target.
func refBFSDepth(t *topology.Topology, from, to int) int {
	if from == to {
		return 0
	}
	depth := make([]int, t.NumSwitches)
	for i := range depth {
		depth[i] = -1
	}
	depth[from] = 0
	queue := []int{from}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, nb := range t.Neighbors(s) {
			if depth[nb.Switch] < 0 {
				depth[nb.Switch] = depth[s] + 1
				if nb.Switch == to {
					return depth[nb.Switch]
				}
				queue = append(queue, nb.Switch)
			}
		}
	}
	return t.NumSwitches
}

// refHopsToPort is HopsToPort as it was computed before the distance
// tables: a search or a routed path walk on every call.
func refHopsToPort(m *Manager, id admission.PortID) int {
	if id.Host >= 0 {
		sw, _ := m.Topo.HostSwitch(id.Host)
		return 1 + refBFSDepth(m.Topo, m.HomeSwitch, sw)
	}
	if m.Routes == nil {
		return 1
	}
	h := m.Topo.HostAt(id.Switch, 0)
	if h < 0 {
		return 1 + refBFSDepth(m.Topo, m.HomeSwitch, id.Switch)
	}
	path, err := m.Routes.PathSwitches(0, h)
	if err != nil {
		return m.Topo.NumSwitches
	}
	return len(path)
}

// TestHopsToPortMatchesPerCallSearch checks the distance tables against
// the retired computation for every host interface and switch port of
// three fabrics, and that reassigning Topo, Routes or HomeSwitch re-derives
// them; once built, a lookup allocates nothing.
func TestHopsToPortMatchesPerCallSearch(t *testing.T) {
	for _, spec := range []topology.Spec{
		{Class: topology.Irregular, Switches: 8, Seed: 1},
		{Class: topology.FatTree, K: 4},
		{Class: topology.Dragonfly, A: 4, P: 2, H: 2},
	} {
		spec := spec
		t.Run(spec.Label(), func(t *testing.T) {
			topo, err := spec.Generate()
			if err != nil {
				t.Fatal(err)
			}
			var ids []admission.PortID
			for h := 0; h < topo.NumHosts(); h++ {
				ids = append(ids, admission.HostPortID(h))
			}
			for s := 0; s < topo.NumSwitches; s++ {
				for p := 0; p < topo.Ports(); p++ {
					ids = append(ids, admission.SwitchPortID(s, p))
				}
			}
			m := NewManager(topo)
			check := func(stage string) {
				t.Helper()
				for _, id := range ids {
					if got, want := m.hopsToPort(id), refHopsToPort(m, id); got != want {
						t.Fatalf("%s: HopsToPort(%v) = %d, per-call search says %d", stage, id, got, want)
					}
				}
				if allocs := testing.AllocsPerRun(10, func() {
					for _, id := range ids {
						m.hopsToPort(id)
					}
				}); allocs != 0 {
					t.Errorf("%s: HopsToPort allocates %.1f objects per sweep once the tables exist", stage, allocs)
				}
			}
			check("no routes")

			if m.Routes, err = routing.ComputeFor(topo); err != nil {
				t.Fatal(err)
			}
			check("routes")

			// Routes repaired around a lost link, handed to the manager
			// with the degraded topology, as recovery does.
			degraded := topo.Clone()
			cut := false
			for s := 0; s < topo.NumSwitches && !cut; s++ {
				for p := 0; p < topo.Ports() && !cut; p++ {
					if topo.Peer(s, p).Switch >= 0 {
						if err := degraded.RemoveLink(s, p); err != nil {
							t.Fatal(err)
						}
						cut = true
					}
				}
			}
			whole := m.Routes
			if m.Routes, _, err = routing.Repair(degraded); err != nil {
				t.Fatal(err)
			}
			m.Topo = degraded
			check("repaired routes")

			m.HomeSwitch = topo.NumSwitches - 1
			check("moved home")

			m.Topo, m.Routes = topo, whole
			check("moved home, whole fabric")

			m.Routes = nil
			check("routes dropped")
		})
	}
}
