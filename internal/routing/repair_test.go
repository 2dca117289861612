package routing

import (
	"math/rand"
	"testing"

	"repro/internal/routing/cdg"
	"repro/internal/topology"
)

// repairShapes is the shape grid of the repair property test: one
// representative of each topology class with enough redundancy that
// single failures usually leave the graph connected, small enough that
// 25 seeds x 2 failure modes per class stay fast.
func repairShapes() []topology.Spec {
	return []topology.Spec{
		{Class: topology.Irregular, Switches: 8},
		{Class: topology.FatTree, K: 4},
		{Class: topology.Dragonfly, A: 3, P: 2, H: 1},
	}
}

// components labels the connected components of the switch graph.
func components(t *topology.Topology) []int {
	comp := make([]int, t.NumSwitches)
	for i := range comp {
		comp[i] = -1
	}
	c := 0
	for root := 0; root < t.NumSwitches; root++ {
		if comp[root] >= 0 {
			continue
		}
		comp[root] = c
		queue := []int{root}
		for len(queue) > 0 {
			s := queue[0]
			queue = queue[1:]
			for _, nb := range t.Neighbors(s) {
				if comp[nb.Switch] < 0 {
					comp[nb.Switch] = c
					queue = append(queue, nb.Switch)
				}
			}
		}
		c++
	}
	return comp
}

// TestRepairSingleFailureProperty is the failover correctness oracle:
// for every topology class, any single link failure and any single
// switch crash (25 seeds each) must yield a repaired route set that
//
//   - the CDG verifier proves acyclic over the degraded topology,
//   - routes every host pair that is still connected in the degraded
//     switch graph (PathSwitches succeeds),
//   - leaves every disconnected pair explicitly unroutable at the
//     source and counts it in the report — never silently dropped.
func TestRepairSingleFailureProperty(t *testing.T) {
	for _, sp := range repairShapes() {
		sp := sp
		t.Run(sp.Label(), func(t *testing.T) {
			for seed := int64(1); seed <= 25; seed++ {
				sp := sp
				if sp.Class == topology.Irregular {
					sp.Seed = seed
				}
				base, err := sp.Generate()
				if err != nil {
					t.Fatalf("seed %d: generate: %v", seed, err)
				}
				rng := rand.New(rand.NewSource(seed * 7919))

				// One link failure and one switch crash per seed.
				linkDegraded := base.Clone()
				links := linkDegraded.Links()
				l := links[rng.Intn(len(links))]
				if err := linkDegraded.RemoveLink(l.A.Switch, l.A.Port); err != nil {
					t.Fatalf("seed %d: remove link: %v", seed, err)
				}
				checkRepair(t, linkDegraded, seed, "link")

				swDegraded := base.Clone()
				if err := swDegraded.RemoveSwitch(rng.Intn(swDegraded.NumSwitches)); err != nil {
					t.Fatalf("seed %d: remove switch: %v", seed, err)
				}
				checkRepair(t, swDegraded, seed, "switch")
			}
		})
	}
}

// TestRepairIntactMatchesComputeFor: intact and degraded irregular
// fabrics share one up*/down* engine, so repairing a fabric that lost
// nothing must return exactly the tables ComputeFor builds, with no
// unreachable pair and no fallback.
func TestRepairIntactMatchesComputeFor(t *testing.T) {
	for _, n := range []int{2, 8, 16, 32} {
		for seed := int64(1); seed <= 5; seed++ {
			topo, err := topology.Generate(n, seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ComputeFor(topo)
			if err != nil {
				t.Fatal(err)
			}
			got, rep, err := Repair(topo)
			if err != nil {
				t.Fatalf("%d switches, seed %d: %v", n, seed, err)
			}
			if rep.UnreachablePairs != 0 || rep.FellBack {
				t.Errorf("%d switches, seed %d: intact repair reports %+v", n, seed, rep)
			}
			for s := 0; s < n; s++ {
				if got.Level(s) != want.Level(s) {
					t.Fatalf("%d switches, seed %d: switch %d at level %d, ComputeFor %d", n, seed, s, got.Level(s), want.Level(s))
				}
				for d := 0; d < n; d++ {
					if g, w := got.NextPortToSwitch(s, d), want.NextPortToSwitch(s, d); g != w {
						t.Fatalf("%d switches, seed %d: %d->%d out of port %d, ComputeFor %d", n, seed, s, d, g, w)
					}
				}
			}
		}
	}
}

func checkRepair(t *testing.T, degraded *topology.Topology, seed int64, mode string) {
	t.Helper()
	r, rep, err := Repair(degraded)
	if err != nil {
		t.Fatalf("seed %d (%s failure): repair failed: %v", seed, mode, err)
	}
	if st, err := cdg.VerifyPartial(degraded, r); err != nil {
		t.Fatalf("seed %d (%s failure): repaired tables not proved acyclic: %v", seed, mode, err)
	} else if st.Unroutable != rep.Stats.Unroutable {
		t.Fatalf("seed %d (%s failure): report unroutable %d != re-proof %d",
			seed, mode, rep.Stats.Unroutable, st.Unroutable)
	}

	comp := components(degraded)
	wantUnreachable := 0
	for src := 0; src < degraded.NumSwitches; src++ {
		if degraded.SwitchHosts(src) == 0 {
			continue
		}
		for dst := 0; dst < degraded.NumSwitches; dst++ {
			if dst == src || degraded.SwitchHosts(dst) == 0 {
				continue
			}
			if comp[src] != comp[dst] {
				wantUnreachable++
				if p := r.NextPortToSwitch(src, dst); p >= 0 {
					t.Fatalf("seed %d (%s failure): route %d->%d crosses components via port %d",
						seed, mode, src, dst, p)
				}
				continue
			}
			// Connected pair: a full host-to-host walk must succeed.
			h1, h2 := degraded.HostAt(src, hostPort(degraded, src)), degraded.HostAt(dst, hostPort(degraded, dst))
			if _, err := r.PathSwitches(h1, h2); err != nil {
				t.Fatalf("seed %d (%s failure): surviving pair %d->%d unrouted: %v",
					seed, mode, src, dst, err)
			}
		}
	}
	if rep.UnreachablePairs != wantUnreachable {
		t.Fatalf("seed %d (%s failure): report says %d unreachable pairs, graph says %d",
			seed, mode, rep.UnreachablePairs, wantUnreachable)
	}
}

// hostPort returns a port of sw carrying a host (the switch is known
// host-bearing).
func hostPort(t *topology.Topology, sw int) int {
	for p := 0; p < topology.SwitchPorts; p++ {
		if t.HostAt(sw, p) >= 0 {
			return p
		}
	}
	return -1
}

// TestRepairDragonflyCrash: a host-bearing dragonfly switch that loses
// every link strands its hosts, and no other pair.  With one switch
// per group every route is a single global hop, so minimal l-g-l
// survives the crash: the pairs to and from the crashed switch are its
// only unroutable ones, which is exactly the disconnected set, and
// repair keeps minimal routing.  With two switches per group the crash
// also breaks minimal paths between surviving switches that a detour
// through a third group covers, so repair falls back to up*/down*.
func TestRepairDragonflyCrash(t *testing.T) {
	for _, tc := range []struct {
		spec        topology.Spec
		fellBack    bool
		unreachable int
	}{
		{topology.Spec{Class: topology.Dragonfly, A: 1, P: 2, H: 3}, false, 2 * 3},
		{topology.Spec{Class: topology.Dragonfly, A: 2, P: 1, H: 1}, true, 2 * 5},
	} {
		topo, err := tc.spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		degraded := topo.Clone()
		if err := degraded.RemoveSwitch(0); err != nil {
			t.Fatal(err)
		}
		if got := disconnectedRoutes(degraded, 1); got != tc.unreachable {
			t.Errorf("%s: %d disconnected routes per base VL, want %d", tc.spec.Label(), got, tc.unreachable)
		}
		_, rep, err := Repair(degraded)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Label(), err)
		}
		if rep.FellBack != tc.fellBack || rep.UnreachablePairs != tc.unreachable {
			t.Errorf("%s: report %+v, want FellBack %v and %d unreachable pairs",
				tc.spec.Label(), rep, tc.fellBack, tc.unreachable)
		}
		checkRepair(t, degraded, 0, "switch")
	}
}
