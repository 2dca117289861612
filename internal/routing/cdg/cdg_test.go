package cdg_test

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/routing/cdg"
	"repro/internal/topology"
)

// TestAcyclicIrregular is the engine × class × seed property pass: the
// up*/down* engine must be deadlock-free on 50 random irregular
// topologies of varying size.
func TestAcyclicIrregular(t *testing.T) {
	sizes := []int{2, 3, 4, 8, 16, 24}
	for seed := int64(1); seed <= 50; seed++ {
		n := sizes[int(seed)%len(sizes)]
		topo, err := topology.Generate(n, seed)
		if err != nil {
			t.Fatalf("generate(%d, %d): %v", n, seed, err)
		}
		r, err := routing.ComputeFor(topo)
		if err != nil {
			t.Fatalf("routes(%d, %d): %v", n, seed, err)
		}
		st, err := cdg.Verify(topo, r)
		if err != nil {
			t.Fatalf("irregular n=%d seed=%d: %v", n, seed, err)
		}
		if st.Routes == 0 || st.Channels == 0 {
			t.Fatalf("irregular n=%d seed=%d: empty graph %+v", n, seed, st)
		}
	}
}

func TestAcyclicFatTree(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8} {
		topo, err := topology.GenerateFatTree(k)
		if err != nil {
			t.Fatalf("fattree k=%d: %v", k, err)
		}
		r, err := routing.ComputeFor(topo)
		if err != nil {
			t.Fatalf("fattree k=%d routes: %v", k, err)
		}
		st, err := cdg.Verify(topo, r)
		if err != nil {
			t.Fatalf("fattree k=%d: %v", k, err)
		}
		if st.Routes == 0 {
			t.Fatalf("fattree k=%d: no routes walked", k)
		}
		if r.Planes() != 1 {
			t.Fatalf("fattree k=%d: want single VL plane, got %d", k, r.Planes())
		}
	}
}

// dragonflyShapes are the (a, p, h) shapes of the dragonfly property
// pass and the differential test.
var dragonflyShapes = [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 2}, {3, 2, 2}, {4, 2, 2}, {4, 1, 3}, {2, 4, 3}}

func TestAcyclicDragonfly(t *testing.T) {
	for _, s := range dragonflyShapes {
		a, p, h := s[0], s[1], s[2]
		topo, err := topology.GenerateDragonfly(a, p, h)
		if err != nil {
			t.Fatalf("dragonfly (%d,%d,%d): %v", a, p, h, err)
		}
		r, err := routing.ComputeFor(topo)
		if err != nil {
			t.Fatalf("dragonfly (%d,%d,%d) routes: %v", a, p, h, err)
		}
		st, err := cdg.Verify(topo, r)
		if err != nil {
			t.Fatalf("dragonfly (%d,%d,%d): %v", a, p, h, err)
		}
		if st.Routes == 0 {
			t.Fatalf("dragonfly (%d,%d,%d): no routes walked", a, p, h)
		}
		if r.Planes() != 2 {
			t.Fatalf("dragonfly (%d,%d,%d): want 2 VL planes, got %d", a, p, h, r.Planes())
		}
	}
}

// ringEngine routes every packet clockwise around a ring on a single VL
// — the textbook deadlocking routing function.
type ringEngine struct{}

func (e ringEngine) NextPortToSwitch(sw, dsw int) int {
	if sw == dsw {
		return -1
	}
	return 5
}
func (e ringEngine) HopVLToSwitch(sw, dsw int, base uint8) uint8 { return base }
func (e ringEngine) BaseVLs() int                                { return 1 }

// TestVerifierRejectsCycle proves the oracle actually rejects: the
// clockwise ring's channel dependencies (0:5)->(1:5)->(2:5)->(3:5)->
// (0:5) form a cycle, and Verify must find it and name its channels.
func TestVerifierRejectsCycle(t *testing.T) {
	const n = ringSwitches
	_, err := cdg.Verify(ringTopology(t), ringEngine{})
	if err == nil {
		t.Fatal("verifier accepted a deadlocking ring routing")
	}
	cyc, ok := err.(*cdg.CycleError)
	if !ok {
		t.Fatalf("want *cdg.CycleError, got %T: %v", err, err)
	}
	if len(cyc.Cycle) != n+1 {
		t.Fatalf("want cycle of %d channels (+closing repeat), got %v", n, cyc.Cycle)
	}
	if cyc.Cycle[0] != cyc.Cycle[len(cyc.Cycle)-1] {
		t.Fatalf("cycle witness not closed: %v", cyc.Cycle)
	}
	for _, c := range cyc.Cycle {
		if c.Port != 5 {
			t.Fatalf("cycle uses unexpected port: %v", cyc.Cycle)
		}
	}
}

// ringSwitches is the size of the ring fixture.
const ringSwitches = 4

// ringTopology is the ring fixture: one host per switch, every switch
// wiring port 5 to the next switch and port 4 to the previous one.
func ringTopology(t testing.TB) *topology.Topology {
	t.Helper()
	topo := topology.NewManual(ringSwitches)
	for s := 0; s < ringSwitches; s++ {
		if _, err := topo.AttachHost(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < ringSwitches; s++ {
		if err := topo.Connect(s, 5, (s+1)%ringSwitches, 4); err != nil {
			t.Fatal(err)
		}
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestEscapePlaneNecessary documents WHY the dragonfly needs the
// escape plane: the same minimal forwarding function collapsed onto a
// single VL plane must be rejected by the verifier for a shape where
// minimal routes chain local-global-local through the groups.
func TestEscapePlaneNecessary(t *testing.T) {
	topo, err := topology.GenerateDragonfly(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.ComputeFor(topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cdg.Verify(topo, flatEngine{r}); err == nil {
		t.Fatal("single-plane minimal dragonfly routing verified acyclic; escape plane would be pointless")
	} else if _, ok := err.(*cdg.CycleError); !ok {
		t.Fatalf("want a cycle witness, got %T: %v", err, err)
	}
}

// flatEngine strips the VL planes off a routing engine, forcing every
// hop onto the base VL.
type flatEngine struct{ r *routing.Routes }

func (e flatEngine) NextPortToSwitch(sw, dsw int) int            { return e.r.NextPortToSwitch(sw, dsw) }
func (e flatEngine) HopVLToSwitch(sw, dsw int, base uint8) uint8 { return base }
func (e flatEngine) BaseVLs() int                                { return 1 }
