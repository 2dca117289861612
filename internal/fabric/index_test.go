package fabric

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/arbtable"
	"repro/internal/routing"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// This file holds the differential tests of the request index (see
// pipeline.go) under every switch model: the WRR rule's candidates
// against the full head scan trySwitch used before the index
// (scanReady), the VOQ rule's requests against the queue scans of
// voq_ref_test.go, across parallel shards and failure recovery.

// candidates is what one WRR scheduling pass at a switch output port
// would arbitrate over: the VL 15 input served ahead of everything (-1
// when none) and the data-VL offer.
type candidates struct {
	mgmt int
	offer
}

// scanReady is the candidate search trySwitch used before the head
// index replaced it, kept as the reference: probe every (input, VL)
// queue head of the switch in round-robin input order and look its
// output port up.
func scanReady(n *Network, s, p int) candidates {
	node := n.switches[s]
	out := &node.out[p]
	now := n.shardForSwitch(s).eng.Now()
	down := n.occView(out)
	capacity := n.bufferCapacity()

	P := len(node.out)
	c := candidates{mgmt: -1}
	{
		vl := arbtable.MgmtVL
		for k := 0; k < P; k++ {
			i := (int(out.rr[vl]) + k) % P
			in := &node.in[i]
			q := &in.queues[vl]
			if q.len() == 0 || in.busyUntil > now {
				continue
			}
			pkt := q.front()
			if n.Routes.NextPort(s, pkt.Dst) != p {
				continue
			}
			if down != nil && int(down[vl])+pkt.Wire > capacity {
				continue
			}
			c.mgmt = i
			break
		}
	}
	for invl := 0; invl < arbtable.NumDataVLs; invl++ {
		for k := 0; k < P; k++ {
			i := (int(out.rr[invl]) + k) % P
			in := &node.in[i]
			q := &in.queues[invl]
			if q.len() == 0 || in.busyUntil > now {
				continue
			}
			pkt := q.front()
			if n.Routes.NextPort(s, pkt.Dst) != p {
				continue
			}
			outvl := invl
			if n.planes > 1 {
				outvl = int(n.Routes.HopVL(s, pkt.Dst, pkt.Base))
				if c.ready[outvl] != 0 {
					continue // lane claimed by an earlier input VL
				}
			}
			if down != nil && int(down[outvl])+pkt.Wire > capacity {
				continue // no credit toward the next switch
			}
			c.ready[outvl] = pkt.Wire
			c.src[outvl] = uint8(i)
			c.srcVL[outvl] = uint8(invl)
			break
		}
	}
	return c
}

// indexReady is what trySwitch computes for the same port now.
func indexReady(n *Network, s, p int) candidates {
	node := n.switches[s]
	now := n.shardForSwitch(s).eng.Now()
	cand := node.ix.cand(p)
	c := candidates{mgmt: n.mgmtCandidate(node, p, cand[arbtable.MgmtVL], now)}
	n.dataCandidates(node, p, node.ix.vls()[p]&dataVLMask, cand, now, &c.offer)
	return c
}

// stepStats counts how hard a differential run exercised the pick, so
// a test that compared nothing but empty ports fails loudly.
type stepStats struct {
	offered   int // (port, lane) candidates seen
	contended int // candidate sets with more than one input
	blocked   int // set members the per-candidate checks passed over
	mgmt      int // VL 15 candidates seen
}

// compareAllPorts checks, for every wired output port of every switch,
// that the index yields exactly the candidates of the reference scan.
func compareAllPorts(t *testing.T, n *Network, st *stepStats) {
	t.Helper()
	offered, members := 0, 0
	for s, node := range n.switches {
		for p := range node.out {
			if !node.out[p].wired {
				continue
			}
			want, got := scanReady(n, s, p), indexReady(n, s, p)
			if got.mgmt != want.mgmt || got.ready != want.ready {
				t.Fatalf("t=%d switch %d port %d: index offers mgmt %d ready %v, scan offers mgmt %d ready %v",
					n.Now(), s, p, got.mgmt, got.ready, want.mgmt, want.ready)
			}
			if want.mgmt >= 0 {
				st.mgmt++
			}
			for vl, wire := range want.ready {
				if wire == 0 {
					continue
				}
				offered++
				if got.src[vl] != want.src[vl] || got.srcVL[vl] != want.srcVL[vl] {
					t.Fatalf("t=%d switch %d port %d lane %d: index picks input %d VL %d, scan picks input %d VL %d",
						n.Now(), s, p, vl, got.src[vl], got.srcVL[vl], want.src[vl], want.srcVL[vl])
				}
			}
			for vl := 0; vl < arbtable.NumDataVLs; vl++ {
				set := node.ix.cand(p)[vl]
				if set&(set-1) != 0 {
					st.contended++
				}
				members += bits.OnesCount32(set)
			}
		}
	}
	st.offered += offered
	st.blocked += members - offered
}

// loadDifferential offers the traffic mix the differential runs need:
// loadSharded's admitted QoS connections and light background, plus
// best effort heavy enough to exhaust downstream credit and pile
// several inputs onto one output lane, and VL 15 management flows
// converging on a few hosts.
func loadDifferential(t *testing.T, n *Network, seed int64) {
	t.Helper()
	loadSharded(t, n, seed)
	hosts := n.Topo.NumHosts()
	for _, be := range traffic.BestEffortBackground(hosts, 1500, seed+2) {
		n.AddBestEffort(be)
	}
	// Hot spots: every host also sends best effort to host 0 or 1.
	for h := 2; h < hosts; h++ {
		n.AddBestEffort(traffic.BestEffort{Src: h, Dst: h % 2, SL: sl.BESL, Mbps: 600})
	}
	for h := 1; h < hosts; h++ {
		n.addManagement(h, (h*5+1)%hosts, 40)
		n.addManagement(h, 0, 120)
	}
}

// indexDiff is one run's differential of the request index against the
// retired scans, under the network's switch model: at every wired WRR
// output port the candidates against scanReady, at every input-queued
// switch the VL 15 picks, requests and kick predicate against
// scanRequests, with every crossbar pass replayed through the reference
// schedulers (matchAuditor).
type indexDiff struct {
	n     *Network
	wrr   stepStats
	voq   voqStats
	audit *matchAuditor // nil under the WRR rule
}

func newIndexDiff(t *testing.T, n *Network) *indexDiff {
	d := &indexDiff{n: n}
	if n.Cfg.SwitchModel != ModelWRR {
		d.audit = auditMatches(t, n)
	}
	return d
}

// compare checks every switch once.
func (d *indexDiff) compare(t *testing.T) {
	t.Helper()
	if d.audit == nil {
		compareAllPorts(t, d.n, &d.wrr)
	} else {
		compareAllSwitches(t, d.n, &d.voq)
	}
}

// quiet fails a run whose comparisons proved too little.  A parallel
// run is compared only at window barriers, where every switch has
// already served what it could, so it is held to less.
func (d *indexDiff) quiet(t *testing.T, parallel bool) {
	t.Helper()
	if d.audit == nil {
		if st := d.wrr; st.offered == 0 || st.contended == 0 || st.mgmt == 0 || !parallel && st.blocked == 0 {
			t.Fatalf("run too quiet to prove anything: %+v", st)
		}
		return
	}
	d.audit.check(t)
	if st, idle := d.voq, d.n.voqIdlePasses(); st.blocked == 0 || st.idle == 0 || idle == 0 ||
		!parallel && (st.requests == 0 || st.contended == 0 || st.mgmt == 0 || st.busy == 0) {
		t.Fatalf("run too quiet to prove anything: %+v, %d idle passes", st, idle)
	}
}

// allModels lists every switch model the differential tests run under.
var allModels = []SwitchModel{ModelWRR, ModelVOQISLIP, ModelVOQMWM}

// stepLoadedFabrics builds loaded fabrics of every routing class under
// every switch model (loadDifferential) and hands each to run, which
// sets up its probes and then calls steps: steps starts the fabric, lets
// the queues fill and single-steps it 4000 events, calling each after
// every event.
func stepLoadedFabrics(t *testing.T, run func(t *testing.T, n *Network, steps func(each func(step int)))) {
	cases := []struct {
		name   string
		spec   topology.Spec
		planes int
	}{
		{"irregular-8", topology.Spec{Class: topology.Irregular, Switches: 8, Seed: 11}, 1},
		{"fattree-k4", topology.Spec{Class: topology.FatTree, K: 4}, 1},
		{"dragonfly-2-2-1", topology.Spec{Class: topology.Dragonfly, A: 2, P: 2, H: 1}, 2},
	}
	for _, model := range allModels {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			for _, tc := range cases {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					n := buildVOQ(t, tc.spec, model, 9)
					if n.planes != tc.planes {
						t.Fatalf("planes = %d, want %d", n.planes, tc.planes)
					}
					loadDifferential(t, n, 31)
					run(t, n, func(each func(step int)) {
						n.Start()
						n.Run(20_000) // let the queues fill before comparing
						for step := 0; step < 4000; step++ {
							if !n.Engine.Step() {
								t.Fatal("engine ran dry")
							}
							each(step)
						}
					})
				})
			}
		})
	}
}

// TestRequestIndexMatchesScan single-steps loaded fabrics of every
// routing class under every switch model and compares, after every
// event, what the index yields with the retired full scans': under the
// WRR rule the same VL 15 input, ready vector, and input and queueing
// VL behind every lane at every wired output port; under the VOQ rule
// the same VL 15 picks and request matrix at every switch, the kick
// predicate saying "worth a pass" exactly when the scan finds something,
// and every matching equal to the reference scheduler's.  Identical
// candidates and matchings mean identical picks, forwards, pointer
// updates and events, which is what keeps every golden byte-identical.
func TestRequestIndexMatchesScan(t *testing.T) {
	stepLoadedFabrics(t, func(t *testing.T, n *Network, steps func(func(int))) {
		d := newIndexDiff(t, n)
		steps(func(step int) {
			d.compare(t)
			if step%500 == 0 {
				if err := n.CheckBuffers(); err != nil {
					t.Fatal(err)
				}
			}
		})
		d.quiet(t, false)
	})
}

// wordWrites counts the index words a kind of call changed, split by
// view: live words belong to the view the switch rule reads, dead words
// to the other.
type wordWrites struct{ calls, live, dead int }

func (w wordWrites) String() string {
	return fmt.Sprintf("%d calls, %.2f live and %.2f dead words each",
		w.calls, float64(w.live)/float64(w.calls), float64(w.dead)/float64(w.calls))
}

// add counts one call that turned the views (head, anyPkt) into (head2,
// anyPkt2), under the head view (headLive) or the any-packet view.
func (w *wordWrites) add(headLive bool, head, anyPkt, head2, anyPkt2 []uint32) {
	h, a := changedWords(head, head2), changedWords(anyPkt, anyPkt2)
	if !headLive {
		h, a = a, h
	}
	w.calls++
	w.live += h
	w.dead += a
}

func changedWords(a, b []uint32) (k int) {
	for i := range a {
		if a[i] != b[i] {
			k++
		}
	}
	return k
}

// indexViews copies the words of x's head view and of its any-packet
// view, the summaries and valid bits included; a view x does not keep
// has no words.
func indexViews(x *reqIndex) (head, anyPkt []uint32) {
	words := slices.Clone(x.w32)
	for _, w := range x.w16 {
		words = append(words, uint32(w))
	}
	sums := []uint32{x.dataOuts, x.mgmtOuts, x.reqValid}
	if x.head {
		return words, sums
	}
	return nil, append(words, sums...)
}

// cloneSwitch returns a copy of node's input buffers, every packet
// copied, and of its request index, for push and pop to change without
// touching the running fabric.
func cloneSwitch(node *swNode) *swNode {
	c := &swNode{id: node.id, in: make([]inPort, len(node.in)), ix: node.ix}
	c.ix.w32, c.ix.w16 = slices.Clone(node.ix.w32), slices.Clone(node.ix.w16)
	for i := range node.in {
		for vl := range node.in[i].queues {
			q := &node.in[i].queues[vl]
			for pkt := q.front(); pkt != nil; pkt = q.after(pkt) {
				cp := *pkt
				c.in[i].queues[vl].push(&cp)
			}
		}
	}
	return c
}

// countWordWrites pops, from a copy of node, the packet each non-empty
// input buffer could send — its front under the WRR rule, under the VOQ
// rule the head of the virtual output queue its last packet belongs to —
// and pushes it back onto the buffer's tail, diffing the index words
// around every call.
func countWordWrites(node *swNode, push, pop *wordWrites) {
	c := cloneSwitch(node)
	headLive := c.ix.head
	for i := range c.in {
		for vl := range c.in[i].queues {
			q := &c.in[i].queues[vl]
			if q.len() == 0 {
				continue
			}
			p := int(q.front().out)
			if !headLive {
				p = int(q.tail.out)
			}
			h0, a0 := indexViews(&c.ix)
			pkt := c.pop(i, vl, p)
			h1, a1 := indexViews(&c.ix)
			c.push(i, vl, p, pkt)
			h2, a2 := indexViews(&c.ix)
			pop.add(headLive, h0, a0, h1, a1)
			push.add(headLive, h1, a1, h2, a2)
		}
	}
}

// TestRequestIndexWordWrites counts the request index words each push
// and each pop changes, per switch model, over the fabrics and events of
// TestRequestIndexMatchesScan: after every event it copies one switch
// and diffs the index words around a pop and a push of every buffer's
// sendable packet.  Every call must write the live view only.
func TestRequestIndexWordWrites(t *testing.T) {
	counts := map[SwitchModel]*[2]wordWrites{}
	stepLoadedFabrics(t, func(t *testing.T, n *Network, steps func(func(int))) {
		c := counts[n.Cfg.SwitchModel]
		if c == nil {
			c = new([2]wordWrites)
			counts[n.Cfg.SwitchModel] = c
		}
		steps(func(step int) {
			countWordWrites(n.switches[step%len(n.switches)], &c[0], &c[1])
		})
	})
	for _, model := range allModels {
		c := counts[model]
		if c == nil {
			continue // filtered out by -run
		}
		push, pop := c[0], c[1]
		t.Logf("%s: push %v; pop %v", model, push, pop)
		if push.calls == 0 || push.live == 0 || pop.live == 0 {
			t.Errorf("%s: too quiet to prove anything: push %v, pop %v", model, push, pop)
		}
		if push.dead != 0 || pop.dead != 0 {
			t.Errorf("%s: push wrote %d and pop %d words of the view the rule does not read", model, push.dead, pop.dead)
		}
	}
}

// TestParallelShardRequestIndex is the same comparison on two-shard
// parallel runs, made at window barriers — the only instants at which
// another goroutine may read shard state.  Boundary ports take their
// credit view from the sender-side mirror on both sides of the
// comparison; the crossbar passes' replay runs inside the shard
// goroutines and carries the proof there.  ci.sh runs it under -race
// with the other TestParallelShard gates.
func TestParallelShardRequestIndex(t *testing.T) {
	for _, model := range []SwitchModel{ModelWRR, ModelVOQISLIP} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			n := buildVOQSharded(t, topology.Spec{Class: topology.FatTree, K: 4}, model, 3, 2)
			if !n.Parallel() {
				t.Fatal("2-shard fat-tree should run parallel")
			}
			loadDifferential(t, n, 17)
			d := newIndexDiff(t, n)
			n.Start()
			for until := int64(20_000); until < 60_000; until += 97 {
				n.Run(until)
				d.compare(t)
			}
			if err := n.CheckBuffers(); err != nil {
				t.Fatal(err)
			}
			d.quiet(t, true)
		})
	}
}

// TestHeadIndexIgnoresUnroutableHeads covers the window between a
// route repair and the sweep: a queued head whose destination the
// repaired routes cannot reach (NextPort -1) requests no output, kicks
// no output, and the audit accepts the index built over it.
func TestHeadIndexIgnoresUnroutableHeads(t *testing.T) {
	n := buildNet(t, 8, 256, 3)
	for _, be := range traffic.BestEffortBackground(n.Topo.NumHosts(), 800, 3) {
		n.AddBestEffort(be)
	}
	n.Start()

	// Run until some switch input holds a head that is not at its last
	// hop, then remove the destination's switch from the route set.
	var node *swNode
	in, vl, dsw := -1, -1, -1
	n.RunWhile(func() bool {
		for _, sw := range n.switches {
			for i := range sw.in {
				for v := range sw.in[i].queues {
					q := &sw.in[i].queues[v]
					if q.len() == 0 {
						continue
					}
					if d, _ := n.Topo.HostSwitch(q.front().Dst); d != sw.id {
						node, in, vl, dsw = sw, i, v, d
						return false
					}
				}
			}
		}
		return n.Now() < 200_000
	})
	if node == nil {
		t.Fatal("no transit head ever queued")
	}
	degraded := n.Topo.Clone()
	if err := degraded.RemoveSwitch(dsw); err != nil {
		t.Fatal(err)
	}
	repaired, _, err := routing.Repair(degraded)
	if err != nil {
		t.Fatal(err)
	}
	n.Routes, n.planes = repaired, repaired.Planes()
	n.rebuildIndex()

	head := node.in[in].queues[vl].front()
	if port := n.Routes.NextPort(node.id, head.Dst); port != -1 {
		t.Fatalf("head toward removed switch %d still routes out port %d", dsw, port)
	}
	if head.out != -1 {
		t.Fatalf("unroutable head stamped with output %d", head.out)
	}
	if node.ix.queued()[in]&(1<<uint(vl)) == 0 {
		t.Fatal("unroutable head's queue not marked non-empty")
	}
	for p := range node.ix.vls() {
		if node.ix.cand(p)[vl]&(1<<uint(in)) != 0 {
			t.Fatalf("unroutable head requests output port %d", p)
		}
	}
	if err := n.CheckBuffers(); err != nil {
		t.Fatal(err)
	}
	// A freed crossbar slot at that input must skip the head, not index
	// port -1; the pass it arms for the other heads must run clean.
	sh := n.shardForSwitch(node.id)
	n.rule.inputFreed(sh, node.id, in)
	sh.kickSwitch(node.id, -1)
	n.Engine.Run(n.Now()) // ends the instant: the marked passes run
	var st stepStats
	compareAllPorts(t, n, &st)
	if err := n.CheckBuffers(); err != nil {
		t.Fatal(err)
	}
}

// addManagement attaches a subnet-management flow on VL 15.  VL 15 is
// never listed in arbitration tables: it has absolute priority over
// every data VL (IBA 1.0; paper section 2.1).
func (n *Network) addManagement(src, dst int, mbps float64) *Flow {
	return n.attach(newFlow(src, dst, arbtable.MgmtVL, arbtable.MgmtVL,
		mbps, n.Cfg.PayloadBytes, 0, false))
}
