package fabric

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// portView is what one output port shows of the state NewWithTopology
// and admission.NewPorts carve from shared slabs: both tables, both low
// lists and the arbiter, slot masks included.
type portView struct {
	shadowHigh, activeHigh [arbtable.TableSize]arbtable.Entry
	shadowLow, activeLow   []arbtable.Entry
	version                uint64
	arb                    arbtable.Arbiter
}

// TestSlabNeighboursNeverAlias admits, programs and releases random
// connections on a k=4 fat-tree and requires, after every step, that a
// port's tables, low lists and arbiter changed only if the step's path
// crosses it: a write through one port's slab cell that reached a
// neighbour's would show up as a change off the path.  A port whose
// active table was swapped is picked once with nothing ready, which
// rebuilds its arbiter's slot masks from its own table.
func TestSlabNeighboursNeverAlias(t *testing.T) {
	topo, err := topology.Spec{Class: topology.FatTree, K: 4}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewWithTopology(DefaultConfig(topo.NumSwitches, 256, 5), topo)
	if err != nil {
		t.Fatal(err)
	}
	port := func(id admission.PortID) *outPort {
		if id.Host >= 0 {
			return &n.hosts[id.Host].out
		}
		return &n.switches[id.Switch].out[id.Port]
	}
	view := func(op *outPort) portView {
		shadow, active := op.pt.Allocator().Table(), op.pt.Active()
		v := portView{
			shadowHigh: shadow.High, activeHigh: active.High,
			shadowLow: slices.Clone(shadow.Low), activeLow: slices.Clone(active.Low),
			version: active.Version(),
		}
		if op.arb != nil {
			v.arb = *op.arb
		}
		return v
	}
	views := map[admission.PortID]portView{}
	n.Adm.Ports().Each(func(id admission.PortID, _ *core.PortTable) { views[id] = view(port(id)) })

	// check re-arms the swapped arbiters on the path, then compares every
	// port with its view before the step.
	check := func(step int, what string, path []admission.PortID) {
		t.Helper()
		on := map[admission.PortID]bool{}
		for _, id := range path {
			on[id] = true
			if op := port(id); op.arb != nil && op.pt.Active().Version() != views[id].version {
				// The arbiter re-anchors only if it reads this port's
				// active table.
				before := op.arb.Reanchors()
				op.arb.Pick(&arbtable.Ready{})
				if op.arb.Reanchors() != before+1 {
					t.Fatalf("step %d: %v's arbiter missed its table's swap", step, id)
				}
			}
		}
		n.Adm.Ports().Each(func(id admission.PortID, pt *core.PortTable) {
			op := port(id)
			if op.pt != pt {
				t.Fatalf("step %d: %v is wired to another port's table", step, id)
			}
			if op.arb != nil {
				if err := op.arb.CheckIndex(); err != nil {
					t.Fatalf("step %d: %v: %v", step, id, err)
				}
			}
			now, before := view(op), views[id]
			changed := now.shadowHigh != before.shadowHigh || now.activeHigh != before.activeHigh ||
				!slices.Equal(now.shadowLow, before.shadowLow) || !slices.Equal(now.activeLow, before.activeLow) ||
				now.version != before.version || now.arb != before.arb
			if changed && !on[id] {
				t.Fatalf("step %d (%s): %v changed but is not on the path %v", step, what, id, path)
			}
			views[id] = now
		})
	}

	rng := rand.New(rand.NewSource(5))
	src := traffic.NewSource(sl.DefaultLevels, topo.NumHosts(), 6)
	var live []*admission.Conn
	admitted, released := 0, 0
	for step := 0; step < 600; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(live))
			conn := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := n.Adm.Release(conn); err != nil {
				t.Fatal(err)
			}
			released++
			check(step, "release", conn.Sites())
			continue
		}
		conn, err := n.Adm.Admit(src.Next())
		if err != nil {
			check(step, "refusal", nil)
			continue
		}
		live = append(live, conn)
		admitted++
		check(step, "admission", conn.Sites())
	}
	if admitted < 100 || released < 50 {
		t.Fatalf("only %d admissions and %d releases", admitted, released)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
