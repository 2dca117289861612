package topology

import (
	"testing"
	"testing/quick"
)

func TestGenerateSmall(t *testing.T) {
	topo, err := Generate(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if !topo.Connected() {
		t.Fatal("2-switch topology not connected")
	}
	if topo.NumHosts() != 8 {
		t.Errorf("hosts = %d, want 8", topo.NumHosts())
	}
}

func TestGenerateSizesFromPaper(t *testing.T) {
	// Paper evaluates 8 to 64 switches.
	for _, n := range []int{8, 16, 32, 64} {
		topo, err := Generate(n, 42)
		if err != nil {
			t.Fatalf("%d switches: %v", n, err)
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("%d switches: %v", n, err)
		}
		if !topo.Connected() {
			t.Fatalf("%d switches: not connected", n)
		}
		if topo.NumHosts() != 4*n {
			t.Errorf("%d switches: hosts = %d, want %d", n, topo.NumHosts(), 4*n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(16, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(16, 7)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 16; s++ {
		for p := HostsPerSwitch; p < SwitchPorts; p++ {
			if a.Peer(s, p) != b.Peer(s, p) {
				t.Fatalf("seed 7 not deterministic at switch %d port %d", s, p)
			}
		}
	}
	c, err := Generate(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for s := 0; s < 16 && same; s++ {
		for p := HostsPerSwitch; p < SwitchPorts; p++ {
			if a.Peer(s, p) != c.Peer(s, p) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical topologies")
	}
}

func TestGenerateRejectsTiny(t *testing.T) {
	if _, err := Generate(1, 1); err == nil {
		t.Error("1-switch topology accepted")
	}
	if _, err := Generate(0, 1); err == nil {
		t.Error("0-switch topology accepted")
	}
}

// TestGenerateRejectsHuge: the irregular size cap is the largest
// structured shape, and sizes past it are refused at once.
func TestGenerateRejectsHuge(t *testing.T) {
	l, err := NewFatTreeLayout(SwitchPorts)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumSwitches() != MaxIrregularSwitches {
		t.Errorf("MaxIrregularSwitches = %d, the k=%d fat-tree has %d switches", MaxIrregularSwitches, SwitchPorts, l.NumSwitches())
	}
	for _, n := range []int{MaxIrregularSwitches + 1, 100_000} {
		if _, err := Generate(n, 1); err == nil {
			t.Errorf("%d-switch topology accepted", n)
		}
	}
}

func TestHostMapping(t *testing.T) {
	topo, _ := Generate(4, 3)
	for h := 0; h < topo.NumHosts(); h++ {
		sw, port := topo.HostSwitch(h)
		if sw != h/HostsPerSwitch || port != h%HostsPerSwitch {
			t.Errorf("host %d -> (%d,%d)", h, sw, port)
		}
		if got := topo.HostAt(sw, port); got != h {
			t.Errorf("HostAt(%d,%d) = %d, want %d", sw, port, got, h)
		}
	}
	if h := topo.HostAt(0, HostsPerSwitch); h != -1 {
		t.Errorf("HostAt on inter-switch port = %d, want -1", h)
	}
}

func TestPeerOnHostPort(t *testing.T) {
	topo, _ := Generate(4, 3)
	if e := topo.Peer(0, 0); e.Switch != -1 {
		t.Errorf("Peer on host port = %+v, want unconnected", e)
	}
	if e := topo.Peer(0, SwitchPorts); e.Switch != -1 {
		t.Errorf("Peer on out-of-range port = %+v, want unconnected", e)
	}
}

func TestNoDuplicateLinks(t *testing.T) {
	topo, err := Generate(16, 99)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < topo.NumSwitches; s++ {
		seen := map[int]bool{}
		for _, nb := range topo.Neighbors(s) {
			if seen[nb.Switch] {
				t.Errorf("switch %d has duplicate link to %d", s, nb.Switch)
			}
			seen[nb.Switch] = true
		}
	}
}

// TestGenerateQuick: every seed yields a valid connected topology.
func TestGenerateQuick(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		size := 2 + int(sizeRaw%63)
		topo, err := Generate(size, seed)
		if err != nil {
			return false
		}
		return topo.Validate() == nil && topo.Connected()
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLinks(t *testing.T) {
	topo, _ := Generate(8, 7)
	links := topo.Links()
	// Each link appears exactly once; cross-check against per-switch
	// neighbor counts.
	degreeSum := 0
	for s := 0; s < topo.NumSwitches; s++ {
		degreeSum += len(topo.Neighbors(s))
	}
	if 2*len(links) != degreeSum {
		t.Errorf("links = %d but degree sum = %d", len(links), degreeSum)
	}
	for _, l := range links {
		if l.A.Switch > l.B.Switch {
			t.Errorf("link %v not ordered", l)
		}
		if topo.Peer(l.A.Switch, l.A.Port) != l.B {
			t.Errorf("link %v inconsistent with Peer", l)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	topo, _ := Generate(4, 9)
	c := topo.Clone()
	links := c.Links()
	if err := c.RemoveLink(links[0].A.Switch, links[0].A.Port); err != nil {
		t.Fatal(err)
	}
	// Original untouched.
	if topo.Peer(links[0].A.Switch, links[0].A.Port) != links[0].B {
		t.Error("RemoveLink on clone mutated the original")
	}
	if err := topo.Validate(); err != nil {
		t.Error(err)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRemoveLinkErrors(t *testing.T) {
	topo, _ := Generate(4, 9)
	if err := topo.RemoveLink(0, 0); err == nil {
		t.Error("removing a host port succeeded")
	}
	if err := topo.RemoveLink(99, 5); err == nil {
		t.Error("removing from invalid switch succeeded")
	}
	c := topo.Clone()
	l := c.Links()[0]
	if err := c.RemoveLink(l.A.Switch, l.A.Port); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveLink(l.A.Switch, l.A.Port); err == nil {
		t.Error("double removal succeeded")
	}
}

// TestDistances: hop counts are symmetric, zero only at the source, and
// change by at most one across a link; a switch cut off from the rest
// is -1 from every other switch and reaches only itself.
func TestDistances(t *testing.T) {
	topo, err := Generate(16, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []bool{false, true} {
		if cut {
			for _, nb := range topo.Neighbors(5) {
				if err := topo.RemoveLink(5, nb.Port); err != nil {
					t.Fatal(err)
				}
			}
		}
		for s := 0; s < topo.NumSwitches; s++ {
			ds := topo.Distances(s)
			for d, h := range ds {
				isolated := cut && (s == 5) != (d == 5)
				if h != topo.Distances(d)[s] || (h == 0) != (s == d) || (h < 0) != isolated {
					t.Fatalf("cut %v: distance %d->%d = %d (back %d)", cut, s, d, h, topo.Distances(d)[s])
				}
				for _, nb := range topo.Neighbors(d) {
					if diff := ds[nb.Switch] - h; h >= 0 && (diff < -1 || diff > 1) {
						t.Fatalf("cut %v: from %d, link %d-%d joins distances %d and %d", cut, s, d, nb.Switch, h, ds[nb.Switch])
					}
				}
			}
		}
		if topo.Connected() == cut {
			t.Errorf("cut %v: Connected() = %v", cut, !cut)
		}
	}
}
