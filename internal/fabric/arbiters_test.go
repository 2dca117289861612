package fabric

import (
	"strings"
	"testing"

	"repro/internal/arbtable"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestUnwiredPortsCarryNoArbiter: switch ports the topology leaves
// unwired inside its radix never arbitrate, so NewWithTopology gives
// them no arbiter, and nothing that walks the port slices —
// EnableMetrics, the scheduling passes of either switch model on one
// engine or two shards, CheckBuffers — dereferences one.  The k = 8
// fat-tree wires every port of its radix; the k = 4 fat-tree, the
// irregular fabric and the dragonfly leave ports unwired, and the table
// as a whole must exercise both kinds.
func TestUnwiredPortsCarryNoArbiter(t *testing.T) {
	cases := []struct {
		name   string
		spec   topology.Spec
		model  SwitchModel
		shards int
	}{
		{"wrr-fattree-k4", topology.Spec{Class: topology.FatTree, K: 4}, ModelWRR, 1},
		{"wrr-irregular-8", topology.Spec{Class: topology.Irregular, Switches: 8, Seed: 11}, ModelWRR, 1},
		{"voq-islip-dragonfly", topology.Spec{Class: topology.Dragonfly, A: 2, P: 2, H: 1}, ModelVOQISLIP, 1},
		{"wrr-fattree-k8", topology.Spec{Class: topology.FatTree, K: 8}, ModelWRR, 1},
		{"wrr-fattree-k4-shards2", topology.Spec{Class: topology.FatTree, K: 4}, ModelWRR, 2},
		{"voq-islip-fattree-k4-shards2", topology.Spec{Class: topology.FatTree, K: 4}, ModelVOQISLIP, 2},
	}
	wired, unwired, ran := 0, 0, 0
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			n := buildVOQSharded(t, tc.spec, tc.model, 5, tc.shards)
			for _, s := range n.switches {
				if len(s.out) != n.Topo.Ports() || len(s.in) != n.Topo.Ports() {
					t.Fatalf("switch %d has %d inputs and %d outputs, radix %d", s.id, len(s.in), len(s.out), n.Topo.Ports())
				}
				for p := range s.out {
					out := &s.out[p]
					if (out.arb != nil) != out.wired {
						t.Fatalf("switch %d port %d: wired=%v, arbiter present=%v", s.id, p, out.wired, out.arb != nil)
					}
					if out.wired {
						wired++
					} else {
						unwired++
					}
				}
			}

			m := n.EnableMetrics()
			loadDifferential(t, n, 23)
			n.Start()
			for until := int64(10_000); until <= 60_000; until += 10_000 {
				n.Run(until)
				if err := n.CheckBuffers(); err != nil {
					t.Fatal(err)
				}
			}
			if m.Arb.Picks == 0 || m.Arb.EntriesVisited < m.Arb.Picks {
				t.Fatalf("arbiters on the wired ports did not count: %+v", m.Arb)
			}
			ran++
		})
	}
	// A -run filter may select a few cases; only the whole table owes
	// both kinds of port.
	if ran == len(cases) && (wired == 0 || unwired == 0) {
		t.Fatalf("%d wired and %d unwired ports over the table: the shapes prove nothing", wired, unwired)
	}
}

// TestCheckBuffersAuditsArbiterIndex mutation-checks the fabric audit
// through its one entry point, Network.CheckInvariants.  Each row breaks
// one invariant of one port of an idle, lightly loaded k=4 fat-tree and
// requires an error naming that port, then undoes the break and
// requires a clean audit:
//   - a high-table entry written into a running port's active table
//     without Swap, invisible to that port's arbiter (CheckBuffers, at a
//     switch port and at a host);
//   - a shadow slot overwritten, as by a defragmenter that skipped a
//     relocation (the port table's allocator check);
//   - a PortTable.Reserve no connection owns, as by a leaked connection
//     (the admission ledger).
func TestCheckBuffersAuditsArbiterIndex(t *testing.T) {
	cases := []struct {
		name, port string
		// mutate breaks the invariant and returns what restores it.
		mutate func(t *testing.T, n *Network) (undo func())
	}{
		{"arbiter index", "switch 3 port 0", func(t *testing.T, n *Network) func() {
			out := &n.switches[3].out[0]
			if !out.wired {
				t.Fatal("switch 3 port 0 should be wired in a k=4 fat-tree")
			}
			active := out.pt.Active()
			saved := active.High[17]
			active.High[17] = arbtable.Entry{VL: 5, Weight: 3}
			return func() { active.High[17] = saved }
		}},
		{"arbiter index at a host", "host 5", func(t *testing.T, n *Network) func() {
			active := n.hosts[5].out.pt.Active()
			saved := active.High[40]
			active.High[40] = arbtable.Entry{VL: 1, Weight: 1}
			return func() { active.High[40] = saved }
		}},
		{"shadow slot overwritten", "host 2", func(t *testing.T, n *Network) func() {
			alloc := n.Adm.Ports().Host[2].Allocator()
			seq := alloc.Sequences()[0]
			shadow := &alloc.Table().High
			from, to := seq.Start, seq.Start+1 // slot start+1 is free: the connection alone is on this port
			if !shadow[to].IsFree() {
				t.Fatalf("slot %d of host 2 is not free", to)
			}
			shadow[from], shadow[to] = shadow[to], shadow[from]
			return func() { shadow[from], shadow[to] = shadow[to], shadow[from] }
		}},
		{"leaked reservation", "switch 3 port 0", func(t *testing.T, n *Network) func() {
			tb := n.Adm.Ports().Switch[3][0]
			leak, err := tb.Reserve(0, 8, 3)
			if err != nil {
				t.Fatal(err)
			}
			return func() {
				if err := tb.Release(leak); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := buildStructured(t, topology.Spec{Class: topology.FatTree, K: 4}, 9)
			if _, err := n.Adm.Admit(traffic.Request{Src: 2, Dst: 9, Level: sl.DefaultLevels[2], Mbps: 2}); err != nil {
				t.Fatal(err)
			}
			if err := n.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			undo := tc.mutate(t, n)
			if err := n.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.port+":") {
				t.Fatalf("CheckInvariants = %v, want an error naming %s", err, tc.port)
			}
			undo()
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("after undoing the mutation: %v", err)
			}
		})
	}
}
