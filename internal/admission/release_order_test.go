package admission

import (
	"math/rand"
	"testing"

	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// chainTopology returns n switches in a line, two hosts on each end
// switch: a path between the ends has n+1 arbitration points.
func chainTopology(t *testing.T, n int) *topology.Topology {
	t.Helper()
	topo := topology.NewManual(n)
	for s := 0; s+1 < n; s++ {
		if err := topo.Connect(s, 4, s+1, 5); err != nil {
			t.Fatal(err)
		}
	}
	for _, loc := range [][2]int{{0, 0}, {0, 1}, {n - 1, 0}, {n - 1, 1}} {
		if _, err := topo.AttachHost(loc[0], loc[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	return topo
}

// fillSources admits requests drawn from src, their source host
// replaced by one of sources hosts spread evenly over the fabric (all
// hosts when sources is 0), until 64 in a row are refused.  It returns
// the admitted connections and the requests drawn.
func fillSources(c *Controller, src *traffic.Source, sources int) (live []*Conn, attempts int) {
	hosts := c.topo.NumHosts()
	for refused := 0; refused < 64; attempts++ {
		req := src.Next()
		if sources > 0 {
			req.Src = req.Src % sources * (hosts / sources)
			if req.Src == req.Dst {
				continue
			}
		}
		conn, err := c.Admit(req)
		if err != nil {
			refused++
			continue
		}
		refused = 0
		live = append(live, conn)
	}
	return live, attempts
}

// bigLevels are the default service levels of 2 Mbps and more, on
// distances 32 and 64: they fill a host interface with tens of
// connections, not hundreds, several sharing each sequence.
var bigLevels = []sl.Level{sl.DefaultLevels[4], sl.DefaultLevels[5], sl.DefaultLevels[7], sl.DefaultLevels[8], sl.DefaultLevels[9]}

// TestReleaseInRandomOrderEmptiesEveryTable: a connection finds the
// table of each hop through the controller's ports and releases the
// weight it keeps once for all of them.  On four networks — the k=8 and
// k=32 fat-trees, a dragonfly, and a chain whose paths have more hops
// than newConn packs into one object — requests of bigLevels from a few
// hosts spread over the fabric (every host of the chain) are admitted
// until the fill is refused, every live connection is released in
// random order with the controller's invariants checked after each
// release, and then every shadow and active table must be empty and the
// controller converged.  The sources are few because each check visits
// every port: 49 152 of them at k=32.
func TestReleaseInRandomOrderEmptiesEveryTable(t *testing.T) {
	for _, tc := range []struct {
		name    string
		topo    func(t *testing.T) *topology.Topology
		sources int
		short   bool // run under -short too
	}{
		{"fattree-k8", fromSpec(topology.Spec{Class: topology.FatTree, K: 8}), 16, true},
		{"fattree-k32", fromSpec(topology.Spec{Class: topology.FatTree, K: 32}), 2, false},
		{"dragonfly-a4p2h2", fromSpec(topology.Spec{Class: topology.Dragonfly, A: 4, P: 2, H: 2}), 16, true},
		{"chain-10", func(t *testing.T) *topology.Topology { return chainTopology(t, 10) }, 0, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && !tc.short {
				t.Skip("fills a k=32 fat-tree")
			}
			topo := tc.topo(t)
			routes, err := routing.ComputeFor(topo)
			if err != nil {
				t.Fatal(err)
			}
			c := NewController(topo, routes, sl.IdentityMapping(), NewPorts(topo, arbtable.UnlimitedHigh, nil))
			src := traffic.NewSource(bigLevels, topo.NumHosts(), int64(len(tc.name)))
			live, attempts := fillSources(c, src, tc.sources)
			longest := 0
			for _, conn := range live {
				longest = max(longest, len(conn.hops))
			}
			shared := 0
			c.ports.Each(func(_ PortID, tb *core.PortTable) {
				for _, q := range tb.Allocator().Sequences() {
					if q.Conns > 1 {
						shared++
					}
				}
			})
			t.Logf("%d connections admitted in %d attempts, longest path %d hops, %d shared sequences",
				len(live), attempts, longest, shared)
			if shared == 0 {
				t.Fatal("no sequence is shared: the fill never joined one")
			}
			if tc.name == "chain-10" && longest <= 8 {
				t.Fatalf("longest path has %d hops, want more than newConn packs inline", longest)
			}

			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			for i, conn := range live {
				if err := c.Release(conn); err != nil {
					t.Fatalf("release %d of %d: %v", i+1, len(live), err)
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("after release %d of %d: %v", i+1, len(live), err)
				}
			}
			var empty [core.TableSize]arbtable.Entry
			c.ports.Each(func(id PortID, tb *core.PortTable) {
				switch {
				case tb.ReservedWeight() != 0 || len(tb.Allocator().Sequences()) != 0:
					t.Errorf("%v: %d weight in %d sequences left", id, tb.ReservedWeight(), len(tb.Allocator().Sequences()))
				case tb.Allocator().Table().High != empty:
					t.Errorf("%v: shadow table not empty: %v", id, tb.Allocator().Table().High)
				case tb.Active().High != empty:
					t.Errorf("%v: active table not empty: %v", id, tb.Active().High)
				}
			})
			if err := c.CheckConverged(); err != nil {
				t.Error(err)
			}
		})
	}
}

// fromSpec returns a builder of spec's topology.
func fromSpec(spec topology.Spec) func(*testing.T) *topology.Topology {
	return func(t *testing.T) *topology.Topology {
		t.Helper()
		topo, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
}
