package fabric

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

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

// heldProgram is one in-band transaction a heldProgrammer has not
// finished delivering: the port, its delta and the blocks sent so far.
type heldProgram struct {
	id   admission.PortID
	pt   *core.PortTable
	d    core.Delta
	sent int
}

// heldProgrammer keeps every delta the admission controller commits
// open until the test delivers its blocks one at a time, so that many
// ports hold transactions, and the port tables' shared staging records,
// at once.
type heldProgrammer struct{ open []heldProgram }

func (h *heldProgrammer) Program(id admission.PortID, pt *core.PortTable, d *core.Delta) error {
	h.open = append(h.open, heldProgram{id: id, pt: pt, d: *d})
	return nil
}

// deliver sends the next block of open transaction k, or on a torn
// coin a block of a version the port never opened, which aborts the
// transaction, or on a cancel coin cancels it.  A transaction that
// ends is re-opened, like an in-band programmer does, while the port's
// shadow still differs from its active table.
func (h *heldProgrammer) deliver(t *testing.T, rng *rand.Rand, k int) {
	t.Helper()
	hp := &h.open[k]
	blocks := hp.d.Blocks()
	done := false
	switch coin := rng.Intn(16); {
	case coin == 0:
		b := blocks[rng.Intn(len(blocks))]
		if _, err := hp.pt.DeliverBlock(hp.d.Version+1, b.Index, len(blocks), &b.Entries); err == nil {
			t.Fatalf("%v: a block of a future version did not tear the transaction", hp.id)
		}
		done = true
	case coin == 1:
		if !hp.pt.CancelProgram(hp.d.Version) {
			t.Fatalf("%v: CancelProgram refused the open transaction", hp.id)
		}
		done = true
	default:
		b := blocks[hp.sent]
		applied, err := hp.pt.DeliverBlock(hp.d.Version, b.Index, len(blocks), &b.Entries)
		if err != nil {
			t.Fatalf("%v: %v", hp.id, err)
		}
		hp.sent++
		done = applied
	}
	if !done {
		return
	}
	id, pt := hp.id, hp.pt
	h.open[k] = h.open[len(h.open)-1]
	h.open = h.open[:len(h.open)-1]
	if pt.Programming() {
		t.Fatalf("%v: transaction ended but the port is still programming", id)
	}
	d, err := pt.BeginProgram()
	if err != nil {
		t.Fatalf("%v: %v", id, err)
	}
	if len(d.Blocks()) > 0 {
		h.Program(id, pt, d)
	}
}

// TestSlabNeighboursNeverAlias admits, programs and releases random
// connections on a k=4 fat-tree and requires, after every step, that a
// port's tables, low lists and arbiter changed only if the step's path
// crosses it: a write through one port's slab cell that reached a
// neighbour's would show up as a change off the path.  A port whose
// active table was swapped is picked once with nothing ready, which
// rebuilds its arbiter's slot masks from its own table.  The in-band
// run programs every change as a transaction held open across steps,
// its blocks delivered one per step, so that the staging records the
// port tables share are in use on many ports at once; a delivery's
// step is the delivering port alone, and every port passes its
// CheckInvariants after every step.
func TestSlabNeighboursNeverAlias(t *testing.T) {
	t.Run("apply", func(t *testing.T) { testSlabNeighbours(t, false) })
	t.Run("inband", func(t *testing.T) { testSlabNeighbours(t, true) })
}

func testSlabNeighbours(t *testing.T, inband bool) {
	topo, err := topology.Spec{Class: topology.FatTree, K: 4}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewWithTopology(DefaultConfig(topo.NumSwitches, 256, 5), topo)
	if err != nil {
		t.Fatal(err)
	}
	prog := new(heldProgrammer)
	if inband {
		n.Adm.SetProgrammer(prog)
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
			if err := pt.CheckInvariants(); err != nil {
				t.Fatalf("step %d (%s): %v: %v", step, what, id, err)
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
	// Admission refuses a path through a port mid-reprogram, so the
	// in-band run keeps at most about 16 transactions open and takes
	// more steps for as many admissions.
	steps := 600
	if inband {
		steps = 4000
	}
	admitted, released, peak := 0, 0, 0
	for step := 0; step < steps; step++ {
		peak = max(peak, len(prog.open))
		if len(prog.open) > 16 || len(prog.open) > 0 && rng.Intn(2) == 0 {
			k := rng.Intn(len(prog.open))
			id := prog.open[k].id
			prog.deliver(t, rng, k)
			check(step, "delivery", []admission.PortID{id})
			continue
		}
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
		t.Fatalf("only %d admissions and %d releases (peak %d)", admitted, released, peak)
	}
	if inband {
		if peak < 10 {
			t.Fatalf("at most %d transactions were open at once", peak)
		}
		for step := steps; len(prog.open) > 0; step++ {
			id := prog.open[0].id
			prog.deliver(t, rng, 0)
			check(step, "drain", []admission.PortID{id})
		}
		n.Adm.Ports().Each(func(id admission.PortID, pt *core.PortTable) {
			if pt.Programming() || pt.Dirty() {
				t.Fatalf("%v: programming %v, dirty %v after the drain", id, pt.Programming(), pt.Dirty())
			}
		})
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPortRecordSizes gates the records a fabric carves one of per
// port or switch: a k=8 fat-tree holds 640 switch inputs and outputs,
// 128 hosts and 80 switches, a k=32 one 40 960, 8 192 and 1 280.  An input port was 552 bytes
// while its credit counters were 64-bit and each VL queue kept a head
// and a tail; an output port was 352 bytes while it carried a
// 128-byte boundary-credit mirror whether or not its link crosses
// shards and 64-bit round-robin cursors; a host, one output port and
// sixteen send queues, was 744.  A switch was 256 bytes and its request
// index 192 while the index kept a slice header for every array of both
// its views; it now keeps two, over the live view's words.
func TestPortRecordSizes(t *testing.T) {
	for _, tc := range []struct {
		name       string
		size, ceil uintptr
	}{
		{"inPort", unsafe.Sizeof(inPort{}), 360},
		{"outPort", unsafe.Sizeof(outPort{}), 112},
		{"hostNode", unsafe.Sizeof(hostNode{}), 376},
		{"pktQueue", unsafe.Sizeof(pktQueue{}), 16},
		{"swNode", unsafe.Sizeof(swNode{}), 136},
		{"reqIndex", unsafe.Sizeof(reqIndex{}), 72},
	} {
		if tc.size > tc.ceil {
			t.Errorf("%s is %d bytes, want <= %d", tc.name, tc.size, tc.ceil)
		}
	}
}
