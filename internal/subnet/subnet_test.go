package subnet

import (
	"testing"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/mad"
	"repro/internal/routing"
	"repro/internal/sl"
	"repro/internal/topology"
)

func TestDiscoverCoversFabric(t *testing.T) {
	topo, err := topology.Generate(16, 42)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(topo)
	costs, err := m.Discover()
	if err != nil {
		t.Fatal(err)
	}
	wantDevices := topo.NumSwitches + topo.NumHosts()
	if costs.Devices != wantDevices {
		t.Errorf("discovered %d devices, want %d", costs.Devices, wantDevices)
	}
	// Every inter-switch port was probed.
	wantPorts := 2 * len(topo.Links())
	if costs.SwitchPorts != wantPorts {
		t.Errorf("probed %d switch ports, want %d", costs.SwitchPorts, wantPorts)
	}
	if costs.MADs == 0 || costs.TimeBT <= 0 {
		t.Errorf("costs = %+v", costs)
	}
	if m.Routes == nil {
		t.Fatal("no routes after discovery")
	}
	if err := m.Routes.CheckLegal(); err != nil {
		t.Error(err)
	}
}

// TestDiscoverRoutesLikeFabric: the subnet manager charges its MADs
// along m.Routes, so Discover must compute the tables the fabric
// forwards on — the class's own engine, entry for entry and plane for
// plane — on every topology class.
func TestDiscoverRoutesLikeFabric(t *testing.T) {
	for _, sp := range []topology.Spec{
		{Class: topology.Irregular, Switches: 16, Seed: 42},
		{Class: topology.FatTree, K: 4},
		{Class: topology.Dragonfly, A: 2, P: 1, H: 1},
	} {
		topo, err := sp.Generate()
		if err != nil {
			t.Fatal(err)
		}
		m := NewManager(topo)
		if _, err := m.Discover(); err != nil {
			t.Fatalf("%s: %v", sp.Label(), err)
		}
		want, err := routing.ComputeFor(topo)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Routes.Planes(); got != want.Planes() {
			t.Errorf("%s: Discover routes on %d planes, the fabric on %d", sp.Label(), got, want.Planes())
		}
		for s := 0; s < topo.NumSwitches; s++ {
			for d := 0; d < topo.NumSwitches; d++ {
				if got, w := m.Routes.NextPortToSwitch(s, d), want.NextPortToSwitch(s, d); got != w {
					t.Fatalf("%s: Discover routes %d->%d out of port %d, the fabric out of %d", sp.Label(), s, d, got, w)
				}
			}
		}
	}
}

func TestDiscoverRejectsPartitioned(t *testing.T) {
	topo, _ := topology.Generate(2, 1)
	// A 2-switch fabric has some inter-switch link; removing every one
	// partitions it.
	c := topo.Clone()
	for _, l := range c.Links() {
		if err := c.RemoveLink(l.A.Switch, l.A.Port); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewManager(c).Discover(); err == nil {
		t.Error("partitioned fabric discovered without error")
	}
}

func TestProgrammingRequiresDiscovery(t *testing.T) {
	topo, _ := topology.Generate(4, 2)
	m := NewManager(topo)
	if _, err := m.ProgramForwarding(); err == nil {
		t.Error("ProgramForwarding before Discover succeeded")
	}
	if _, err := m.ProgramQoS(nil, sl.IdentityMapping()); err == nil {
		t.Error("ProgramQoS before Discover succeeded")
	}
}

func TestProgrammingCosts(t *testing.T) {
	topo, _ := topology.Generate(16, 42)
	m := NewManager(topo)
	if _, err := m.Discover(); err != nil {
		t.Fatal(err)
	}
	fw, err := m.ProgramForwarding()
	if err != nil {
		t.Fatal(err)
	}
	// 16 switches, 80 LIDs -> 2 blocks each.
	if fw.MADs != 16*2 {
		t.Errorf("forwarding MADs = %d, want 32", fw.MADs)
	}
	qos, err := m.ProgramQoS(admission.NewPorts(topo, arbtable.UnlimitedHigh, nil), sl.IdentityMapping())
	if err != nil {
		t.Fatal(err)
	}
	// Per wired switch port and host interface: 1 SLtoVL + 4 arbitration
	// blocks.
	wired := 0
	for s := 0; s < topo.NumSwitches; s++ {
		wired += topology.HostsPerSwitch + len(topo.Neighbors(s))
	}
	want := (1 + mad.NumHighBlocks) * (wired + topo.NumHosts())
	if qos.MADs != want {
		t.Errorf("QoS MADs = %d, want %d", qos.MADs, want)
	}
}
