package routing

import (
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func mustRoutes(t *testing.T, switches int, seed int64) (*topology.Topology, *Routes) {
	t.Helper()
	topo, err := topology.Generate(switches, seed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ComputeFor(topo)
	if err != nil {
		t.Fatal(err)
	}
	return topo, r
}

func TestComputeSmall(t *testing.T) {
	topo, r := mustRoutes(t, 4, 1)
	if r.Level(0) != 0 {
		t.Errorf("root level = %d, want 0", r.Level(0))
	}
	for s := 1; s < topo.NumSwitches; s++ {
		if r.Level(s) <= 0 {
			t.Errorf("switch %d level = %d, want > 0", s, r.Level(s))
		}
	}
}

func TestAllPairsReachable(t *testing.T) {
	topo, r := mustRoutes(t, 16, 42)
	for src := 0; src < topo.NumHosts(); src++ {
		for dst := 0; dst < topo.NumHosts(); dst++ {
			if src == dst {
				continue
			}
			path, err := r.PathSwitches(src, dst)
			if err != nil {
				t.Fatalf("route %d -> %d: %v", src, dst, err)
			}
			if len(path) == 0 {
				t.Fatalf("route %d -> %d empty", src, dst)
			}
			dsw, _ := topo.HostSwitch(dst)
			if path[len(path)-1] != dsw {
				t.Fatalf("route %d -> %d ends at switch %d, want %d", src, dst, path[len(path)-1], dsw)
			}
		}
	}
}

func TestSameSwitchDelivery(t *testing.T) {
	topo, r := mustRoutes(t, 8, 3)
	// Hosts 0 and 1 share switch 0.
	if p := r.NextPort(0, 1); p != 1 {
		t.Errorf("NextPort(sw0, host1) = %d, want host port 1", p)
	}
	path, err := r.PathSwitches(0, 1)
	if err != nil || len(path) != 1 || path[0] != 0 {
		t.Errorf("same-switch path = %v, %v; want [0]", path, err)
	}
	_ = topo
}

func TestRoutesAreLegal(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		_, r := mustRoutes(t, n, 5)
		if err := r.CheckLegal(); err != nil {
			t.Errorf("%d switches: %v", n, err)
		}
	}
}

// TestUpDownLegalQuick: every random topology yields legal,
// terminating routes for all destinations.
func TestUpDownLegalQuick(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		size := 2 + int(sizeRaw%31)
		topo, err := topology.Generate(size, seed)
		if err != nil {
			return false
		}
		r, err := ComputeFor(topo)
		if err != nil {
			return false
		}
		return r.CheckLegal() == nil
	}
	cfg := &quick.Config{MaxCount: 30}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestDeterministicForwarding: identical topology and seed produce
// identical forwarding decisions.
func TestDeterministicForwarding(t *testing.T) {
	topoA, _ := topology.Generate(16, 11)
	topoB, _ := topology.Generate(16, 11)
	ra, err := ComputeFor(topoA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ComputeFor(topoB)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 16; s++ {
		for d := 0; d < topoA.NumHosts(); d++ {
			if ra.NextPort(s, d) != rb.NextPort(s, d) {
				t.Fatalf("forwarding differs at switch %d dest host %d", s, d)
			}
		}
	}
}

// TestPathSuffixConsistency: destination-based forwarding means a
// route passing through switch x continues exactly like the route that
// starts at x, which is what makes greedy-down legality composable.
func TestPathSuffixConsistency(t *testing.T) {
	topo, r := mustRoutes(t, 16, 17)
	dst := topo.NumHosts() - 1
	for src := 0; src < 8; src++ {
		path, err := r.PathSwitches(src*4, dst)
		if err != nil {
			t.Fatal(err)
		}
		if len(path) < 2 {
			continue
		}
		mid := path[len(path)/2]
		midHost := topo.HostAt(mid, 0)
		sub, err := r.PathSwitches(midHost, dst)
		if err != nil {
			t.Fatal(err)
		}
		tail := path[len(path)/2:]
		if len(sub) != len(tail) {
			t.Fatalf("suffix length %d != subroute length %d", len(tail), len(sub))
		}
		for i := range sub {
			if sub[i] != tail[i] {
				t.Fatalf("suffix diverges at hop %d: %v vs %v", i, tail, sub)
			}
		}
	}
}

// TestHopCountReasonable: paths never exceed the switch count and on
// the paper's 16-switch network stay well below it.
func TestHopCountReasonable(t *testing.T) {
	topo, r := mustRoutes(t, 16, 23)
	maxHops := 0
	for src := 0; src < topo.NumHosts(); src += 4 {
		for dst := 0; dst < topo.NumHosts(); dst += 4 {
			if src == dst {
				continue
			}
			path, err := r.PathSwitches(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if len(path) > maxHops {
				maxHops = len(path)
			}
		}
	}
	if maxHops > topo.NumSwitches {
		t.Errorf("max path %d switches exceeds switch count", maxHops)
	}
	if maxHops > 10 {
		t.Errorf("max path %d suspiciously long for 16 switches", maxHops)
	}
}

// TestChannelDependencyGraphAcyclic is the classic deadlock-freedom
// verification: build the channel dependency graph — one node per
// directed inter-switch link, an edge whenever some route uses one
// link directly after another — and assert it has no cycle.  This is
// independent of the up*/down* legality check: it verifies the actual
// forwarding tables cannot deadlock credit-based flow control.
func TestChannelDependencyGraphAcyclic(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 42} {
		topo, err := topology.Generate(16, seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ComputeFor(topo)
		if err != nil {
			t.Fatal(err)
		}

		type channel struct{ sw, port int } // directed link: out of sw via port
		edges := make(map[channel]map[channel]bool)
		addEdge := func(a, b channel) {
			if edges[a] == nil {
				edges[a] = make(map[channel]bool)
			}
			edges[a][b] = true
		}

		// Walk every host-pair route and record link-to-link
		// dependencies.
		for src := 0; src < topo.NumHosts(); src++ {
			for dst := 0; dst < topo.NumHosts(); dst++ {
				if src == dst {
					continue
				}
				path, err := r.PathSwitches(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				var prev *channel
				for i := 0; i+1 < len(path); i++ {
					port := r.NextPort(path[i], dst)
					cur := channel{sw: path[i], port: port}
					if prev != nil {
						addEdge(*prev, cur)
					}
					prevCopy := cur
					prev = &prevCopy
				}
			}
		}

		// DFS cycle detection.
		const (
			white = 0
			gray  = 1
			black = 2
		)
		color := make(map[channel]int)
		var visit func(c channel) bool
		visit = func(c channel) bool {
			color[c] = gray
			for next := range edges[c] {
				switch color[next] {
				case gray:
					return false // back edge: cycle
				case white:
					if !visit(next) {
						return false
					}
				}
			}
			color[c] = black
			return true
		}
		for c := range edges {
			if color[c] == white && !visit(c) {
				t.Fatalf("seed %d: channel dependency cycle through %v", seed, c)
			}
		}
	}
}

// TestPathHopsMatchesSwitchWalk: PathHops and AppendPathHops walk the
// forwarding tables themselves; on every host pair of every topology
// class they must name exactly the sites the switch list implies — the
// source interface, then (switch, NextPort, HopVL) per switch of
// PathSwitches — append after whatever the buffer already holds, and,
// with a buffer that has room, allocate nothing.  Over a link the
// tables still point across, both fail, and the buffer comes back at
// its original length.
func TestPathHopsMatchesSwitchWalk(t *testing.T) {
	for _, sp := range []topology.Spec{
		{Class: topology.Irregular, Switches: 16, Seed: 42},
		{Class: topology.FatTree, K: 4},
		{Class: topology.Dragonfly, A: 3, P: 2, H: 1},
	} {
		topo, err := sp.Generate()
		if err != nil {
			t.Fatal(err)
		}
		r, err := ComputeFor(topo)
		if err != nil {
			t.Fatal(err)
		}
		const base = 3
		marker := Hop{Switch: -7, Port: -7}
		buf := make([]Hop, 0, 64)
		for src := 0; src < topo.NumHosts(); src++ {
			for dst := 0; dst < topo.NumHosts(); dst++ {
				if src == dst {
					continue
				}
				switches, err := r.PathSwitches(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				want := []Hop{{Switch: -1, Port: -1, WireVL: r.HopVL(switches[0], dst, base)}}
				for _, sw := range switches {
					want = append(want, Hop{Switch: sw, Port: r.NextPort(sw, dst), WireVL: r.HopVL(sw, dst, base)})
				}
				got, err := r.PathHops(src, dst, base)
				if err != nil || !equalHops(got, want) {
					t.Fatalf("%s: PathHops(%d, %d) = %v, %v; want %v", sp.Label(), src, dst, got, err, want)
				}
				buf, err = r.AppendPathHops(append(buf[:0], marker), src, dst, base)
				if err != nil || buf[0] != marker || !equalHops(buf[1:], want) {
					t.Fatalf("%s: AppendPathHops(%d, %d) = %v, %v; want the marker, then %v", sp.Label(), src, dst, buf, err, want)
				}
			}
		}
		last := topo.NumHosts() - 1
		if allocs := testing.AllocsPerRun(100, func() { buf, _ = r.AppendPathHops(buf[:0], 0, last, base) }); allocs != 0 {
			t.Errorf("%s: AppendPathHops into a warm buffer allocates %.0f objects, want 0", sp.Label(), allocs)
		}

		// Cut the first inter-switch link of the route 0 -> last without
		// repairing the tables.
		hops, _ := r.PathHops(0, last, base)
		if err := topo.RemoveLink(hops[1].Switch, hops[1].Port); err != nil {
			t.Fatal(err)
		}
		if _, err := r.PathSwitches(0, last); err == nil {
			t.Fatalf("%s: PathSwitches crosses a removed link", sp.Label())
		}
		if got, err := r.PathHops(0, last, base); err == nil || len(got) != 0 {
			t.Errorf("%s: PathHops over a removed link = %v, %v; want an error and no hops", sp.Label(), got, err)
		}
		if got, err := r.AppendPathHops(append(buf[:0], marker), 0, last, base); err == nil || len(got) != 1 || got[0] != marker {
			t.Errorf("%s: AppendPathHops over a removed link = %v, %v; want an error and the buffer as it was", sp.Label(), got, err)
		}
	}
}

func equalHops(a, b []Hop) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
