package fabric

import (
	"fmt"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// delayedProgrammer delivers every committed delta whole, delayBT after
// the commit, from an event on its engine: an in-band programmer
// without the wire.
type delayedProgrammer struct{ eng *sim.Engine }

const delayBT = 1000

func (p delayedProgrammer) Program(id admission.PortID, pt *core.PortTable, dp *core.Delta) error {
	d := *dp
	p.eng.After(delayBT, func() {
		for _, b := range d.Blocks() {
			if _, err := pt.DeliverBlock(d.Version, b.Index, len(d.Blocks()), &b.Entries); err != nil {
				panic(fmt.Sprintf("%v: %v", id, err))
			}
		}
	})
	return nil
}

// TestTableSwapWakesPort: a packet queued on a lane whose table entries
// are still travelling in-band finds no entry, and its port goes idle
// with nothing else in the fabric to schedule it again — no traffic,
// no credit return.  The swap that installs the entries must re-arm the
// port.  One packet waits at its source host's interface, the other at
// the first switch's input; both must be delivered, under the WRR and
// the iSLIP switch, on one engine and on two parallel shards (where the
// swap runs on the control lane at a barrier).
func TestTableSwapWakesPort(t *testing.T) {
	topo, err := topology.Spec{Class: topology.FatTree, K: 4}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// src and dst share an edge switch: one switch hop, whose output port
	// is programmed by the same admission as src's interface.
	const src = 0
	sw, _ := topo.HostSwitch(src)
	dst := -1
	for h := src + 1; h < topo.NumHosts() && dst < 0; h++ {
		if s, _ := topo.HostSwitch(h); s == sw {
			dst = h
		}
	}
	for _, model := range []SwitchModel{ModelWRR, ModelVOQISLIP} {
		for _, shards := range []int{1, 2} {
			for _, at := range []string{"host", "switch"} {
				t.Run(fmt.Sprintf("%s/shards%d/%s", model, shards, at), func(t *testing.T) {
					cfg := DefaultConfig(topo.NumSwitches, 256, 7)
					cfg.SwitchModel = model
					cfg.Shards = shards
					n, err := NewWithTopology(cfg, topo)
					if err != nil {
						t.Fatal(err)
					}
					if n.Parallel() != (shards > 1) {
						t.Fatalf("shards=%d: parallel=%v", shards, n.Parallel())
					}
					n.Adm.SetProgrammer(delayedProgrammer{n.Ctrl})

					conn, err := n.Adm.Admit(traffic.Request{Src: src, Dst: dst, Level: sl.DefaultLevels[9], Mbps: 32})
					if err != nil {
						t.Fatal(err)
					}
					f := n.AddConnection(conn)
					host := &n.hosts[src].out
					out := &n.switches[sw].out[n.Routes.NextPort(sw, dst)]
					if !host.pt.Programming() || !out.pt.Programming() {
						t.Fatal("the path's tables are not being programmed in-band")
					}
					switch at {
					case "host":
						if !n.injectPacket(f, 256, 0) {
							t.Fatal("host queue refused the packet")
						}
					case "switch":
						// As if src had sent it: the input's credit is taken
						// and the packet lands in the input queue.
						sh := n.shardForHost(src)
						pkt := sh.newPacket(f, f.VL, int(f.Dst), int(f.Wire), 0, 0)
						f.genPkts++
						sh.totalInjected++
						n.switches[host.downSwitch].in[host.downPort].occ[pkt.VL] += int32(pkt.Wire)
						sh.arrive(host, pkt)
					}

					n.RunWhile(func() bool { return true })
					if host.pt.Programming() || out.pt.Programming() {
						t.Fatal("the in-band program never landed")
					}
					if _, delivered, _ := n.Totals(); delivered != 1 {
						t.Errorf("delivered %d packets, want 1 (%d still queued)", delivered, n.QueuedPackets())
					}
					if err := n.CheckConservation(); err != nil {
						t.Error(err)
					}
					if err := n.CheckBuffers(); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// injectPacket enqueues one upper-layer packet of the given payload size
// on a flow's virtual lane at its source host, bypassing the CBR
// generator.  It reports false when the host queue is full (the packet
// is dropped and counted).
func (n *Network) injectPacket(f *Flow, payload int, tag int64) bool {
	return n.shardForHost(int(f.Src)).enqueue(f, payload+sl.HeaderBytes, tag)
}
