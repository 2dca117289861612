package fabric

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// buildStructured creates a network over a generated structured
// topology.
func buildStructured(t *testing.T, spec topology.Spec, seed int64) *Network {
	t.Helper()
	topo, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(topo.NumSwitches, 256, seed)
	n, err := NewWithTopology(cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestStructuredHopSequencesMatchRoutes is the routing cross-check:
// random QoS and best-effort flows run through the fabric on each
// structured class, and every forwarding decision of every delivered
// packet must match the routing tables — the switch sequence equals
// Routes.PathSwitches, the chosen port equals Routes.NextPort, and the
// wire VL equals Routes.HopVL at each hop.  No misroutes, no silent
// drops: after a drain every injected packet was delivered and every
// tracked hop sequence was consumed.
func TestStructuredHopSequencesMatchRoutes(t *testing.T) {
	specs := []topology.Spec{
		{Class: topology.FatTree, K: 4},
		{Class: topology.Dragonfly, A: 2, P: 2, H: 1},
		{Class: topology.Dragonfly, A: 3, P: 1, H: 2},
		{Class: topology.Irregular, Switches: 6, Seed: 11},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Label(), func(t *testing.T) {
			n := buildStructured(t, spec, 9)
			rng := rand.New(rand.NewSource(31))
			hosts := n.Topo.NumHosts()

			// A mix of QoS connections and best-effort flows over random
			// distinct host pairs; low rates keep the host queues clear so
			// a drop would signal a routing bug, not congestion.
			for i := 0; i < 2*hosts; i++ {
				src, dst := rng.Intn(hosts), rng.Intn(hosts)
				if src == dst {
					continue
				}
				if i%3 == 0 {
					n.AddBestEffort(traffic.BestEffort{
						Src: src, Dst: dst, SL: sl.BESL, Mbps: 2,
					})
					continue
				}
				levels := []int{3, 4, 6, 7} // levels whose range admits 2 Mbps
				conn, err := n.Adm.Admit(traffic.Request{
					Src: src, Dst: dst,
					Level: sl.DefaultLevels[levels[i%len(levels)]], Mbps: 2,
				})
				if err != nil {
					continue // budget exhausted on a shared hop is fine
				}
				n.AddConnection(conn)
			}
			if len(n.Flows()) == 0 {
				t.Fatal("no flows attached")
			}

			hopSeq := make(map[*Packet][]int)
			n.OnForward = func(pkt *Packet, sw, port int) {
				if want := n.Routes.NextPort(sw, pkt.Dst); port != want {
					t.Fatalf("switch %d forwards dst %d out port %d, routes say %d",
						sw, pkt.Dst, port, want)
				}
				if want := n.Routes.HopVL(sw, pkt.Dst, pkt.Base); pkt.VL != want {
					t.Fatalf("switch %d dst %d: wire VL %d, routes say %d (base %d)",
						sw, pkt.Dst, pkt.VL, want, pkt.Base)
				}
				hopSeq[pkt] = append(hopSeq[pkt], sw)
			}
			checked := 0
			n.OnDeliver = func(pkt *Packet) {
				if pkt.Dst != int(pkt.Flow.Dst) {
					t.Fatalf("flow %d->%d packet delivered with dst %d",
						pkt.Flow.Src, pkt.Flow.Dst, pkt.Dst)
				}
				want, err := n.Routes.PathSwitches(int(pkt.Flow.Src), pkt.Dst)
				if err != nil {
					t.Fatal(err)
				}
				got := hopSeq[pkt]
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("flow %d->%d took switches %v, routes say %v",
						pkt.Flow.Src, pkt.Dst, got, want)
				}
				delete(hopSeq, pkt)
				checked++
			}

			n.Start()
			n.Engine.Run(600_000)
			n.StopGeneration()
			n.Engine.Run(1 << 40) // drain
			if err := n.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			inj, del, drop := n.Totals()
			if drop != 0 {
				t.Errorf("%d packets dropped at injection under light load", drop)
			}
			if del != inj {
				t.Errorf("injected %d != delivered %d: packets silently lost", inj, del)
			}
			if len(hopSeq) != 0 {
				t.Errorf("%d packets forwarded but never delivered", len(hopSeq))
			}
			if checked == 0 {
				t.Fatal("no packets checked")
			}
			if n.StaleArrivals() != 0 {
				t.Errorf("%d stale arrivals", n.StaleArrivals())
			}
		})
	}
}

// TestDragonflyEscapePlaneObserved checks the VL plane shift is really
// exercised end to end: on a dragonfly, cross-group packets must be
// seen on plane 0 before their global hop and on plane 1 inside the
// destination group, and intra-group packets inject directly on plane
// 1.
func TestDragonflyEscapePlaneObserved(t *testing.T) {
	n := buildStructured(t, topology.Spec{Class: topology.Dragonfly, A: 2, P: 2, H: 1}, 5)
	stride := uint8(n.Routes.BaseVLs())
	if n.Routes.Planes() != 2 {
		t.Fatalf("planes = %d, want 2", n.Routes.Planes())
	}

	// Host 0 sits in group 0; the last host sits in the last group.
	cross := admitFlow(t, n, 0, n.Topo.NumHosts()-1, 7, 4)
	// Hosts 1 and A*P-1 share group 0 but sit on different switches.
	local := admitFlow(t, n, 1, n.Topo.Spec.A*n.Topo.Spec.P-1, 7, 4)

	if cross.VL != cross.Base {
		t.Errorf("cross-group flow injects on VL %d, want base %d", cross.VL, cross.Base)
	}
	if local.VL != local.Base+stride {
		t.Errorf("intra-group flow injects on VL %d, want escape %d", local.VL, local.Base+stride)
	}

	sawPlane := map[int]bool{}
	n.OnForward = func(pkt *Packet, sw, port int) {
		if pkt.Flow == cross {
			sawPlane[int(pkt.VL/stride)] = true
		}
	}
	n.StartMeasurement()
	n.Start()
	n.Engine.Run(40 * cross.IAT)
	if cross.Delivered == 0 || local.Delivered == 0 {
		t.Fatal("flows did not deliver")
	}
	if !sawPlane[0] || !sawPlane[1] {
		t.Errorf("cross-group packets seen on planes %v, want both 0 and 1", sawPlane)
	}
}
