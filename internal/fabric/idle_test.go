package fabric

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"repro/internal/arbtable"
	"repro/internal/faults"
	"repro/internal/routing"
	"repro/internal/topology"
)

// This file holds the tests of what a kick leaves out, under every
// switch model: a scheduling pass at a port (WRR) or switch (VOQ) the
// kick rules call idle must change nothing at all, and a finite fault
// window must cost one wake-up per port, not one per pass.  (That the
// VOQ predicate is the right one — equal, after every event, to "the
// retired scans find a VL 15 candidate or a request" — is
// compareAllSwitches' business in voq_ref_test.go.)  It also holds the
// mutation test of the request index audit.

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
	r := node.ix.r
	st := voqSwitchState{pending: n.shardForSwitch(s).eng.Pending(), islip: node.xbar.islip}
	_, st.delivered, _ = n.Totals()
	for p := 0; p < r; p++ {
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
	for i := 0; i < r; i++ {
		for vl := range node.in[i].queues {
			for j := 0; j < r; j++ {
				qlen = append(qlen, node.in[i].queues[vl].countFor(int8(j)))
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
		if node.xbar.pending || sh.voqCanMatch(node, sh.eng.Now()) {
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

// wrrPortState is everything a scheduling pass at one output port can
// write beside its node's queues: the events its shard posts (queued,
// deferred or batched for a barrier), the deliveries, the port itself —
// arbiter cursor and residual, round-robin cursors, timestamps, the
// fault wake-up — and its downstream credit.
type wrrPortState struct {
	scheduled int64
	next      int64
	boundary  int
	delivered int64
	out       outPort
	arb       arbtable.Arbiter
	downOcc   [arbtable.NumVLs]int32
}

func snapshotWRRPort(n *Network, sh *shard, out *outPort) wrrPortState {
	st := wrrPortState{
		scheduled: sh.eng.Stats().Scheduled,
		next:      sh.eng.NextTime(),
		boundary:  len(sh.outbox) + len(sh.credits),
		out:       *out,
		arb:       *out.arb,
	}
	_, st.delivered, _ = n.Totals()
	if down := n.occView(out); down != nil {
		st.downOcc = *down
	}
	return st
}

// switchQueues appends what a pass at a switch can change in its input
// ports to sig: every input's crossbar timestamp and queue lengths, and
// every word of the request index.
func switchQueues(node *swNode, sig []int64) []int64 {
	for i := range node.in {
		in := &node.in[i]
		sig = append(sig, in.busyUntil)
		for vl := range in.queues {
			sig = append(sig, int64(in.queues[vl].len()))
		}
	}
	for _, w := range node.ix.w32 {
		sig = append(sig, int64(w))
	}
	for _, w := range node.ix.w16 {
		sig = append(sig, int64(w))
	}
	return sig
}

// hostQueues appends a host's send-queue lengths to sig.
func hostQueues(host *hostNode, sig []int64) []int64 {
	for vl := range host.queues {
		sig = append(sig, int64(host.queues[vl].len()))
	}
	return sig
}

// declinedPasses counts the scheduling points passIdle ran a pass at:
// under the WRR rule the ports passDeclinedPorts passed, under the VOQ
// rule the switches passIdleSwitches passed.
type declinedPasses struct {
	busyHosts, busySwitch, unrequested int
	switches                           int
}

// passDeclinedPorts runs a scheduling pass directly at every port whose
// kick would post nothing — a transmitting host interface, a switch port
// wrrPassIdle calls idle — and fails unless the pass changed nothing.
func passDeclinedPorts(t *testing.T, n *Network, c *declinedPasses) {
	t.Helper()
	var qBefore, qAfter []int64
	check := func(what string, before, after wrrPortState) {
		t.Helper()
		if before != after || !slices.Equal(qBefore, qAfter) {
			t.Fatalf("t=%d %s: a pass the kick would have skipped changed state\nbefore %+v %v\nafter  %+v %v",
				n.Now(), what, before, qBefore, after, qAfter)
		}
	}
	for h, host := range n.hosts {
		sh := n.shardForHost(h)
		if host.out.pending || host.out.busyUntil <= sh.eng.Now() {
			continue
		}
		qBefore = hostQueues(host, qBefore[:0])
		before := snapshotWRRPort(n, sh, &host.out)
		sh.tryHost(h)
		qAfter = hostQueues(host, qAfter[:0])
		check(fmt.Sprintf("host %d", h), before, snapshotWRRPort(n, sh, &host.out))
		c.busyHosts++
	}
	for s, node := range n.switches {
		sh := n.shardForSwitch(s)
		now := sh.eng.Now()
		for p := range node.out {
			out := &node.out[p]
			if !out.wired || out.pending || !n.wrrPassIdle(node, out, p, now) {
				continue
			}
			qBefore = switchQueues(node, qBefore[:0])
			before := snapshotWRRPort(n, sh, out)
			sh.trySwitch(s, p)
			qAfter = switchQueues(node, qAfter[:0])
			check(fmt.Sprintf("switch %d port %d", s, p), before, snapshotWRRPort(n, sh, out))
			if out.busyUntil > now {
				c.busySwitch++
			} else {
				c.unrequested++
			}
		}
	}
}

// passIdle runs, at every scheduling point whose kick would post
// nothing, a pass directly and fails unless it changed nothing.
func passIdle(t *testing.T, n *Network, c *declinedPasses) {
	t.Helper()
	if n.Cfg.SwitchModel == ModelWRR {
		passDeclinedPorts(t, n, c)
	} else {
		c.switches += passIdleSwitches(t, n)
	}
}

// quiet fails a run whose idle passes proved nothing: under the WRR rule
// every class of declined pass must occur (unrequested ports only
// without faults, where only busy ports are declined), under the VOQ
// rule some switch must have been passed idle and some kick suppressed.
func (c *declinedPasses) quiet(t *testing.T, n *Network, faults bool) {
	t.Helper()
	if n.Cfg.SwitchModel != ModelWRR {
		if c.switches == 0 || n.voqIdleKicks() == 0 {
			t.Fatalf("run too quiet to prove anything: %d idle switches passed, %d idle kicks", c.switches, n.voqIdleKicks())
		}
		return
	}
	if c.busyHosts == 0 || c.busySwitch == 0 || (c.unrequested == 0) != faults {
		t.Fatalf("declined passes %+v: every class must occur (unrequested ports only without faults)", c)
	}
}

// TestIdlePassChangesNothing single-steps loaded fabrics under every
// switch model and, after every event, runs a scheduling pass directly
// wherever a kick would have posted nothing — at every declined WRR
// port, on every input-queued switch the kick predicate calls idle: the
// events posted, the queues and request index, the arbiters, the
// round-robin cursors, the iSLIP grant and accept pointers, the port
// timestamps and the downstream credit must all come out as they went
// in.  That is the exactness of the kick rules: what is not posted would
// not have done anything.  The WRR fault case starts just before a stall
// window opens, where only busy ports are declined.
func TestIdlePassChangesNothing(t *testing.T) {
	specs := []struct {
		name string
		spec topology.Spec
	}{
		{"irregular-8", topology.Spec{Class: topology.Irregular, Switches: 8, Seed: 11}},
		{"fattree-k4", topology.Spec{Class: topology.FatTree, K: 4}},
		{"dragonfly-2-2-1", topology.Spec{Class: topology.Dragonfly, A: 2, P: 2, H: 1}},
	}
	type row struct {
		name   string
		spec   topology.Spec
		faults bool
	}
	for _, model := range allModels {
		model := model
		var rows []row
		for _, tc := range specs {
			rows = append(rows, row{tc.name, tc.spec, false})
		}
		if model == ModelWRR {
			rows = append(rows, row{"fattree-k4/faults", specs[1].spec, true})
		}
		t.Run(model.String(), func(t *testing.T) {
			for _, tc := range rows {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					n := buildVOQ(t, tc.spec, model, 9)
					from := int64(20_000)
					if tc.faults {
						faultWindows(n)
						from = 29_000
					}
					loadDifferential(t, n, 31)
					n.Start()
					n.Run(from)
					var c declinedPasses
					for step := 0; step < 3000; step++ {
						if !n.Engine.Step() {
							t.Fatal("engine ran dry")
						}
						passIdle(t, n, &c)
					}
					if err := n.CheckBuffers(); err != nil {
						t.Fatal(err)
					}
					if tc.faults && n.Now() < 30_000 {
						t.Fatalf("stepped to t=%d only, short of the stall window", n.Now())
					}
					c.quiet(t, n, tc.faults)
				})
			}
		})
	}
}

// TestIdleParallelShards is the same check on two-shard parallel runs,
// where kicks — and with them the VOQ predicate, the lazy clearing of
// the busy masks and the rebuilding of request columns — execute on the
// shard goroutines and in the barrier's credit flush.  The direct passes
// run at window barriers, the only instants another goroutine may touch
// shard state.  ci.sh runs it under -race.
func TestIdleParallelShards(t *testing.T) {
	for _, model := range []SwitchModel{ModelWRR, ModelVOQISLIP} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			n := buildVOQSharded(t, topology.Spec{Class: topology.FatTree, K: 4}, model, 3, 2)
			if !n.Parallel() {
				t.Fatal("2-shard fat-tree should run parallel")
			}
			loadDifferential(t, n, 17)
			n.Start()
			var c declinedPasses
			for until := int64(20_000); until < 60_000; until += 97 {
				n.Run(until)
				passIdle(t, n, &c)
			}
			if err := n.CheckBuffers(); err != nil {
				t.Fatal(err)
			}
			c.quiet(t, n, false)
		})
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
// credit or port structs — a buffered packet's stamped output, the
// any-packet view's words and summaries, the remembered request columns
// and their valid bits and the busy masks on an input-queued fabric, the
// head view's sets on a WRR one, and every stamped output at once by a
// route swap that skips rebuildIndex — and the view a rule does not read,
// which must be absent: a summary or valid bit on a WRR fabric, a
// head-view word on an iSLIP one.  It expects CheckBuffers to name what
// broke.
func TestCheckBuffersAuditsVOQState(t *testing.T) {
	// find returns the first (switch, port) the predicate accepts.
	find := func(t *testing.T, n *Network, what string, ok func(node *swNode, p int) bool) (*swNode, int) {
		t.Helper()
		for _, node := range n.switches {
			for p := 0; p < node.ix.r; p++ {
				if ok(node, p) {
					return node, p
				}
			}
		}
		t.Fatalf("no switch port with %s in the loaded fabric", what)
		return nil, 0
	}
	queued := func(node *swNode, j int) bool { return node.ix.dataCols()[j] != 0 }
	// findHeadSet returns the first (switch, head set index) whose
	// candidate set the predicate accepts.
	findHeadSet := func(t *testing.T, n *Network, ok func(c uint32) bool) (*swNode, int) {
		t.Helper()
		for _, node := range n.switches {
			for k, c := range node.ix.w32 {
				if ok(c) {
					return node, k
				}
			}
		}
		t.Fatal("no head candidate set to corrupt in the loaded fabric")
		return nil, 0
	}
	for _, tc := range []struct {
		name    string
		wrr     bool // corrupt a WRR fabric, not an iSLIP one
		corrupt func(t *testing.T, n *Network)
		want    string // the report names this
	}{
		{"a buffered packet's output changed behind the index", false, func(t *testing.T, n *Network) {
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
					pkt.out = int8((int(pkt.out) + 1) % node.ix.r)
					return
				}
			}
		}, "routes say"},
		{"nonEmpty drops a VL still buffering a packet for the output", false, func(t *testing.T, n *Network) {
			node, g := find(t, n, "a non-empty VOQ group", func(node *swNode, i int) bool {
				for j := 0; j < node.ix.r; j++ {
					if node.ix.nonEmpty()[i*node.ix.r+j] != 0 {
						return true
					}
				}
				return false
			})
			row := node.ix.nonEmpty()[g*node.ix.r : (g+1)*node.ix.r]
			for j := range row {
				if row[j] != 0 {
					row[j] &= row[j] - 1
					return
				}
			}
		}, "non-empty VL set"},
		{"dataCols names an input that queues nothing", false, func(t *testing.T, n *Network) {
			node, j := find(t, n, "a data column short of full", func(node *swNode, j int) bool {
				return queued(node, j) && node.ix.dataCols()[j] != 1<<node.ix.r-1
			})
			node.ix.dataCols()[j] |= ^node.ix.dataCols()[j] & (1<<node.ix.r - 1)
		}, "data input set"},
		{"dataCols misses a queued input", false, func(t *testing.T, n *Network) {
			node, j := find(t, n, "queued data", queued)
			node.ix.dataCols()[j] &= node.ix.dataCols()[j] - 1
		}, "data input set"},
		{"mgmtCols names an input that queues nothing", false, func(t *testing.T, n *Network) {
			node, j := find(t, n, "no VL 15 packet", func(node *swNode, j int) bool { return node.ix.mgmtCols()[j] == 0 })
			node.ix.mgmtCols()[j] = 1
		}, "VL 15 input set"},
		{"dataOuts misses an output that holds data", false, func(t *testing.T, n *Network) {
			node, j := find(t, n, "queued data", queued)
			node.ix.dataOuts &^= 1 << j
		}, "output summaries"},
		{"dataOuts names an output that holds none", false, func(t *testing.T, n *Network) {
			node, j := find(t, n, "no queued data", func(node *swNode, j int) bool { return !queued(node, j) })
			node.ix.dataOuts |= 1 << j
		}, "output summaries"},
		{"mgmtOuts names an output that holds no VL 15 packet", false, func(t *testing.T, n *Network) {
			node, j := find(t, n, "no VL 15 packet", func(node *swNode, j int) bool { return node.ix.mgmtCols()[j] == 0 })
			node.ix.mgmtOuts |= 1 << j
		}, "output summaries"},
		{"a valid request column changed", false, func(t *testing.T, n *Network) {
			node, j := find(t, n, "a valid request column", func(node *swNode, j int) bool {
				return node.ix.reqValid&(1<<j) != 0
			})
			node.ix.req()[j] ^= 1
		}, "remembers request column"},
		{"a stale request column is marked valid", false, func(t *testing.T, n *Network) {
			node, j := find(t, n, "queued data", queued)
			node.ix.req()[j] = ^n.voqBuildColumn(node, j, n.bufferCapacity()) & node.ix.dataCols()[j]
			node.ix.req()[j] ^= 1 << bits.TrailingZeros32(node.ix.dataCols()[j]) // differs whatever the credit says
			node.ix.reqValid |= 1 << j
		}, "remembers request column"},
		{"reqValid marks a column beyond the radix", false, func(t *testing.T, n *Network) {
			node := n.switches[0]
			node.ix.reqValid |= 1 << node.ix.r
		}, "valid beyond radix"},
		{"busyOut misses a transmitting output", false, func(t *testing.T, n *Network) {
			node, j := find(t, n, "an output mid-transmission", func(node *swNode, j int) bool {
				return node.out[j].busyUntil > n.Now()
			})
			node.xbar.busyOut &^= 1 << j
		}, "not marked busy"},
		{"busyIn misses an input mid-transfer", false, func(t *testing.T, n *Network) {
			node, i := find(t, n, "an input mid-transfer", func(node *swNode, i int) bool {
				return node.in[i].busyUntil > n.Now()
			})
			node.xbar.busyIn &^= 1 << i
		}, "not marked busy"},
		{"a head candidate set names an input whose front goes elsewhere", true, func(t *testing.T, n *Network) {
			node, k := findHeadSet(t, n, func(c uint32) bool { return c != 0 && c != 1<<len(n.switches[0].in)-1 })
			node.ix.w32[k] |= ^node.ix.w32[k] & (1<<node.ix.r - 1)
		}, "head candidate set"},
		{"a head candidate set misses a front packet", true, func(t *testing.T, n *Network) {
			node, k := findHeadSet(t, n, func(c uint32) bool { return c != 0 })
			node.ix.w32[k] &= node.ix.w32[k] - 1
		}, "head candidate set"},
		{"a head VL set names a VL no front requests", true, func(t *testing.T, n *Network) {
			node, p := find(t, n, "a requested output", func(node *swNode, p int) bool { return node.ix.vls()[p] != 0 })
			free := ^node.ix.vls()[p]
			node.ix.vls()[p] |= free & -free
		}, "head VL set"},
		{"queued drops a non-empty VL", true, func(t *testing.T, n *Network) {
			node, i := find(t, n, "a non-empty input", func(node *swNode, i int) bool { return node.ix.queued()[i] != 0 })
			node.ix.queued()[i] &= node.ix.queued()[i] - 1
		}, "queued VL set"},
		{"a WRR index holds an any-packet summary", true, func(t *testing.T, n *Network) {
			n.switches[0].ix.dataOuts |= 1
		}, "keeps the head view but any-packet summaries"},
		{"a WRR index marks a request column valid", true, func(t *testing.T, n *Network) {
			n.switches[0].ix.reqValid |= 1
		}, "keeps the head view but any-packet summaries"},
		{"an iSLIP index carves a head-view word", false, func(t *testing.T, n *Network) {
			x := &n.switches[0].ix
			x.w32 = append(x.w32, 1) // input 0's front requests output 0 on VL 0
		}, "the view its rule reads"},
		{"routes swapped without rebuildIndex", true, func(t *testing.T, n *Network) {
			node, p := find(t, n, "a packet queued toward another switch", func(node *swNode, p int) bool {
				return node.out[p].downSwitch >= 0 && node.ix.vls()[p] != 0
			})
			degraded := n.Topo.Clone()
			if err := degraded.RemoveLink(node.id, p); err != nil {
				t.Fatal(err)
			}
			repaired, _, err := routing.Repair(degraded)
			if err != nil {
				t.Fatal(err)
			}
			n.Routes, n.planes = repaired, repaired.Planes()
		}, "routes say"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			model := ModelVOQISLIP
			if tc.wrr {
				model = ModelWRR
			}
			n := buildVOQ(t, topology.Spec{Class: topology.Irregular, Switches: 8, Seed: 11}, model, 9)
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
