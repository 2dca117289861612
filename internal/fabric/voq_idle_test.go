package fabric

import (
	"math/bits"
	"slices"
	"strings"
	"testing"

	"repro/internal/arbtable"
	"repro/internal/faults"
	"repro/internal/topology"
)

// This file holds the tests of what a kick at an input-queued switch
// leaves out: a scheduling pass on a switch the kick predicate calls
// idle must change nothing at all, and a finite fault window must cost
// one wake-up per port, not one per pass.  (That the predicate is the
// right one — equal, after every event, to "the retired scans find a
// VL 15 candidate or a request" — is compareAllSwitches' business in
// voq_ref_test.go.)

// voqSwitchState is everything a scheduling pass at one switch can
// write: scheduler pointers, round-robin cursors, arbiters, port
// timestamps and downstream credit, the event population and the
// delivery count, plus (kept apart, being slices) the queue lengths.
type voqSwitchState struct {
	pending   int
	delivered int64
	islip     ISLIPState
	rr        [pP][arbtable.NumVLs]uint8
	arbs      [pP]arbtable.Arbiter
	outBusy   [pP]int64
	inBusy    [pP]int64
	downOcc   [pP][arbtable.NumVLs]int32
}

func snapshotVOQSwitch(n *Network, s int, qlen []int) (voqSwitchState, []int) {
	node := n.switches[s]
	v := node.voq
	st := voqSwitchState{pending: n.shardForSwitch(s).eng.Pending(), islip: v.islip}
	_, st.delivered, _ = n.Totals()
	for p := 0; p < v.r; p++ {
		out := &node.out[p]
		st.rr[p] = out.rr
		if out.arb != nil {
			st.arbs[p] = *out.arb
		}
		st.outBusy[p] = out.busyUntil
		st.inBusy[p] = node.in[p].busyUntil
		if down := n.occView(out); down != nil {
			st.downOcc[p] = *down
		}
	}
	qlen = qlen[:0]
	for i := 0; i < v.r; i++ {
		for vl := range node.in[i].queues {
			for j := 0; j < v.r; j++ {
				qlen = append(qlen, node.in[i].queues[vl].countFor(uint8(j)))
			}
		}
	}
	return st, qlen
}

// passIdleSwitches runs a scheduling pass directly on every switch the
// kick predicate calls idle and fails unless it changed nothing; it
// returns the number of switches so checked.
func passIdleSwitches(t *testing.T, n *Network) int {
	t.Helper()
	checked := 0
	var qBefore, qAfter []int
	for s, node := range n.switches {
		sh := n.shardForSwitch(s)
		if node.voq.pending || sh.voqCanMatch(node, sh.eng.Now()) {
			continue
		}
		var before, after voqSwitchState
		before, qBefore = snapshotVOQSwitch(n, s, qBefore)
		sh.voqSched(s)
		after, qAfter = snapshotVOQSwitch(n, s, qAfter)
		if before != after || !slices.Equal(qBefore, qAfter) {
			t.Fatalf("t=%d switch %d: a pass the kick would have skipped changed state\nbefore %+v %v\nafter  %+v %v",
				n.Now(), s, before, qBefore, after, qAfter)
		}
		checked++
	}
	return checked
}

// TestVOQIdlePassChangesNothing single-steps loaded input-queued fabrics
// and, after every event, runs voqSched directly on every switch whose
// kick would have posted nothing: the event population, the iSLIP grant
// and accept pointers, the round-robin cursors, the arbiters, the
// queues, the port timestamps and the downstream credit must all come
// out as they went in.  Together with the predicate's equality to the
// retired scans this is the exactness of the suppression: what is not
// posted would not have done anything.
func TestVOQIdlePassChangesNothing(t *testing.T) {
	specs := []struct {
		name string
		spec topology.Spec
	}{
		{"irregular-8", topology.Spec{Class: topology.Irregular, Switches: 8, Seed: 11}},
		{"fattree-k4", topology.Spec{Class: topology.FatTree, K: 4}},
		{"dragonfly-2-2-1", topology.Spec{Class: topology.Dragonfly, A: 2, P: 2, H: 1}},
	}
	for _, model := range []SwitchModel{ModelVOQISLIP, ModelVOQMWM} {
		for _, tc := range specs {
			model, tc := model, tc
			t.Run(model.String()+"/"+tc.name, func(t *testing.T) {
				n := buildVOQ(t, tc.spec, model, 9)
				loadDifferential(t, n, 31)
				n.Start()
				n.Run(20_000)
				checked := 0
				for step := 0; step < 3000; step++ {
					if !n.Engine.Step() {
						t.Fatal("engine ran dry")
					}
					checked += passIdleSwitches(t, n)
				}
				if err := n.CheckBuffers(); err != nil {
					t.Fatal(err)
				}
				if checked == 0 || n.VOQIdleKicks() == 0 {
					t.Fatalf("run too quiet to prove anything: %d idle switches passed, %d idle kicks", checked, n.VOQIdleKicks())
				}
			})
		}
	}
}

// TestVOQIdleParallelShards is the same check on a two-shard parallel
// run, where kicks — and with them the predicate, the lazy clearing of
// the busy masks and the rebuilding of request columns — execute on the
// shard goroutines and in the barrier's credit flush.  The direct passes
// run at window barriers, the only instants another goroutine may touch
// shard state.  ci.sh runs it under -race.
func TestVOQIdleParallelShards(t *testing.T) {
	n := buildVOQSharded(t, topology.Spec{Class: topology.FatTree, K: 4}, ModelVOQISLIP, 3, 2)
	if !n.Parallel() {
		t.Fatal("2-shard fat-tree should run parallel")
	}
	loadDifferential(t, n, 17)
	n.Start()
	checked := 0
	for until := int64(20_000); until < 60_000; until += 97 {
		n.Run(until)
		checked += passIdleSwitches(t, n)
	}
	if err := n.CheckBuffers(); err != nil {
		t.Fatal(err)
	}
	if checked == 0 || n.VOQIdleKicks() == 0 {
		t.Fatalf("run too quiet to prove anything: %d idle switches passed, %d idle kicks", checked, n.VOQIdleKicks())
	}
}

// TestFaultWindowPostsOneWakeup is the regression for the event leak
// under finite fault windows: every scheduling pass that found a port
// inside a window posted a wake-up at the window's end, so a window
// under load queued one event per pass.  Host 0 sends two flows into its
// switch: one to a host on the same switch, which keeps the switch
// scheduling, and one across a port that is down for the window; a
// second host's interface is down for the same window while its flow
// keeps generating.  Inside the window the event population must stay
// bounded by the port count whatever the number of passes, and the
// first packets past each blocked port must arrive at the byte-times
// they did when every pass posted (recorded before the fix).
func TestFaultWindowPostsOneWakeup(t *testing.T) {
	// Both blocked packets are two store-and-forward hops from their
	// destination when the window ends; recorded on both models with a
	// wake-up posted per pass.
	const from, firstAfter = 50_000, 604
	for _, model := range []SwitchModel{ModelVOQISLIP, ModelWRR} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			topo, err := topology.Generate(4, 7)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(4, 256, 7)
			cfg.SwitchModel = model
			cfg.HostQueueCap = 4096 // the blocked host keeps queueing, and kicking, all window long
			n, err := NewWithTopology(cfg, topo)
			if err != nil {
				t.Fatal(err)
			}
			sw, _ := topo.HostSwitch(0)
			local, remote, other := -1, -1, -1
			for h := 1; h < topo.NumHosts(); h++ {
				switch s, _ := topo.HostSwitch(h); {
				case s == sw && local < 0:
					local = h
				case s == sw && other < 0:
					other = h
				case s != sw && remote < 0:
					remote = h
				}
			}
			if local < 0 || remote < 0 || other < 0 {
				t.Fatalf("switch %d: local host %d, second local host %d, remote host %d", sw, local, other, remote)
			}
			down := n.Routes.NextPort(sw, remote)
			keep := admitFlow(t, n, 0, local, 9, 64)
			across := admitFlow(t, n, 0, remote, 7, 8)
			behind := admitFlow(t, n, other, local, 5, 64)
			to := from + 1500*keep.IAT
			inj := faults.New(faults.Config{Seed: 1})
			inj.AddLinkDown(faults.SwitchPortKey(sw, down), from, to)
			inj.AddLinkDown(faults.HostKey(other), from, to)
			n.SetFaults(inj)
			var firstPort, firstHost int64
			n.OnDeliver = func(pkt *Packet) {
				now := n.Now()
				if now < to {
					return
				}
				if pkt.Flow == across && firstPort == 0 {
					firstPort = now
				}
				if pkt.Flow == behind && firstHost == 0 {
					firstHost = now
				}
			}
			n.Start()
			n.Engine.Run(to - 1)
			// Every packet of keep that crosses the switch frees input 0's
			// crossbar slot, which re-arms the blocked port behind across's
			// head (a whole-switch pass under the input-queued models);
			// every packet behind generates is a pass at the blocked host.
			if keep.delPkts < 1000 || behind.genPkts < 1000 || across.genPkts < 10 || across.delPkts > 10 {
				t.Fatalf("inside the window: %d packets past the blocked port's switch, %d generated at the blocked host, %d of %d across the blocked port",
					keep.delPkts, behind.genPkts, across.delPkts, across.genPkts)
			}
			bound := topo.NumHosts() + topo.NumSwitches*topo.Ports()
			if pending := n.Engine.Pending(); pending > bound {
				t.Fatalf("%d events pending at the end of the window, bound %d: wake-ups posted per pass", pending, bound)
			}
			n.Engine.Run(to + 200_000)
			if firstPort != to+firstAfter || firstHost != to+firstAfter {
				t.Errorf("first deliveries after the window at %d (across the port) and %d (from the host), recorded %d for both",
					firstPort, firstHost, to+firstAfter)
			}
			if err := n.CheckBuffers(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckBuffersAuditsVOQState corrupts, one word at a time, each
// piece of state a scheduling pass reads instead of scanning queues,
// credit or port structs — a buffered packet's recorded output, the
// occupancy words and their summaries, the remembered request columns
// and their valid bits, the busy masks — and expects CheckBuffers to
// name what broke.
func TestCheckBuffersAuditsVOQState(t *testing.T) {
	// find returns the first (switch, port) the predicate accepts.
	find := func(t *testing.T, n *Network, what string, ok func(node *swNode, p int) bool) (*swNode, int) {
		t.Helper()
		for _, node := range n.switches {
			for p := 0; p < node.voq.r; p++ {
				if ok(node, p) {
					return node, p
				}
			}
		}
		t.Fatalf("no switch port with %s in the loaded fabric", what)
		return nil, 0
	}
	queued := func(node *swNode, j int) bool { return node.voq.dataCols[j] != 0 }
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, n *Network)
		want    string // the report names this
	}{
		{"a buffered packet's output changed behind the index", func(t *testing.T, n *Network) {
			node, i := find(t, n, "a buffered packet", func(node *swNode, i int) bool {
				for vl := range node.in[i].queues {
					if node.in[i].queues[vl].len() != 0 {
						return true
					}
				}
				return false
			})
			for vl := range node.in[i].queues {
				if pkt := node.in[i].queues[vl].front(); pkt != nil {
					pkt.out = uint8((int(pkt.out) + 1) % node.voq.r)
					return
				}
			}
		}, "routes say"},
		{"nonEmpty drops a VL still buffering a packet for the output", func(t *testing.T, n *Network) {
			node, g := find(t, n, "a non-empty VOQ group", func(node *swNode, i int) bool {
				for j := 0; j < node.voq.r; j++ {
					if node.voq.nonEmpty[i*node.voq.r+j] != 0 {
						return true
					}
				}
				return false
			})
			row := node.voq.nonEmpty[g*node.voq.r : (g+1)*node.voq.r]
			for j := range row {
				if row[j] != 0 {
					row[j] &= row[j] - 1
					return
				}
			}
		}, "non-empty VL set"},
		{"dataCols names an input that queues nothing", func(t *testing.T, n *Network) {
			node, j := find(t, n, "a data column short of full", func(node *swNode, j int) bool {
				return queued(node, j) && node.voq.dataCols[j] != 1<<node.voq.r-1
			})
			node.voq.dataCols[j] |= ^node.voq.dataCols[j] & (1<<node.voq.r - 1)
		}, "data input set"},
		{"dataCols misses a queued input", func(t *testing.T, n *Network) {
			node, j := find(t, n, "queued data", queued)
			node.voq.dataCols[j] &= node.voq.dataCols[j] - 1
		}, "data input set"},
		{"mgmtCols names an input that queues nothing", func(t *testing.T, n *Network) {
			node, j := find(t, n, "no VL 15 packet", func(node *swNode, j int) bool { return node.voq.mgmtCols[j] == 0 })
			node.voq.mgmtCols[j] = 1
		}, "VL 15 input set"},
		{"dataOuts misses an output that holds data", func(t *testing.T, n *Network) {
			node, j := find(t, n, "queued data", queued)
			node.voq.dataOuts &^= 1 << j
		}, "output summaries"},
		{"dataOuts names an output that holds none", func(t *testing.T, n *Network) {
			node, j := find(t, n, "no queued data", func(node *swNode, j int) bool { return !queued(node, j) })
			node.voq.dataOuts |= 1 << j
		}, "output summaries"},
		{"mgmtOuts names an output that holds no VL 15 packet", func(t *testing.T, n *Network) {
			node, j := find(t, n, "no VL 15 packet", func(node *swNode, j int) bool { return node.voq.mgmtCols[j] == 0 })
			node.voq.mgmtOuts |= 1 << j
		}, "output summaries"},
		{"a valid request column changed", func(t *testing.T, n *Network) {
			node, j := find(t, n, "a valid request column", func(node *swNode, j int) bool {
				return node.voq.reqValid&(1<<j) != 0
			})
			node.voq.req[j] ^= 1
		}, "remembers request column"},
		{"a stale request column is marked valid", func(t *testing.T, n *Network) {
			node, j := find(t, n, "queued data", queued)
			node.voq.req[j] = ^n.voqBuildColumn(node, j, n.bufferCapacity()) & node.voq.dataCols[j]
			node.voq.req[j] ^= 1 << bits.TrailingZeros32(node.voq.dataCols[j]) // differs whatever the credit says
			node.voq.reqValid |= 1 << j
		}, "remembers request column"},
		{"reqValid marks a column beyond the radix", func(t *testing.T, n *Network) {
			node := n.switches[0]
			node.voq.reqValid |= 1 << node.voq.r
		}, "valid beyond radix"},
		{"busyOut misses a transmitting output", func(t *testing.T, n *Network) {
			node, j := find(t, n, "an output mid-transmission", func(node *swNode, j int) bool {
				return node.out[j].busyUntil > n.Now()
			})
			node.voq.busyOut &^= 1 << j
		}, "not marked busy"},
		{"busyIn misses an input mid-transfer", func(t *testing.T, n *Network) {
			node, i := find(t, n, "an input mid-transfer", func(node *swNode, i int) bool {
				return node.in[i].busyUntil > n.Now()
			})
			node.voq.busyIn &^= 1 << i
		}, "not marked busy"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			n := buildVOQ(t, topology.Spec{Class: topology.Irregular, Switches: 8, Seed: 11}, ModelVOQISLIP, 9)
			loadDifferential(t, n, 31)
			n.Start()
			n.Run(30_000)
			if err := n.CheckBuffers(); err != nil {
				t.Fatalf("before corruption: %v", err)
			}
			tc.corrupt(t, n)
			if err := n.CheckBuffers(); err == nil {
				t.Error("CheckBuffers reported nothing")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("CheckBuffers reported %q, want it to name %q", err, tc.want)
			}
		})
	}
}
