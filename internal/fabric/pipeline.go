package fabric

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/arbtable"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
)

// This file is the switch pipeline every switch model shares (DESIGN.md
// §9, "Switch pipeline").  Packets wait in per-(input, VL) buffers, each
// stamped on arrival with the output port it leaves by (Packet.out), and
// one request index per switch (reqIndex) tells the scheduling passes
// what the buffers hold.  A switch model is a rule over that index
// (switchRule), chosen once by NewWithTopology, and the rule fixes the
// one view the index keeps: under WRR only a front packet may go and
// every output decides alone (trySwitch, reading the head view: which
// inputs' FRONT packets go to each output); under VOQ the first packet
// for an output may go and one matcher decides for the whole switch
// (voqSched, reading the any-packet view: which inputs hold ANY packet
// for each output).  Both rules then share one VL 15 stage
// (mgmtCandidate), one credit and plane-shift candidate loop
// (dataCandidates), one table pick and forward (serve) and one way to
// hold an input (take).
//
// Only push and pop write the index; whatever else edits the buffers or
// replaces Network.Routes calls rebuildIndex, and CheckBuffers audits
// the index against a full scan (checkIndex).

// The input and output sets are uint32 words, one bit per port.
const _ = uint(32 - topology.SwitchPorts)

// dataVLMask selects the data VLs of a per-port VL set.
const dataVLMask = uint16(1)<<arbtable.NumDataVLs - 1

// reqIndex is one switch's request index over its input buffers, sized
// from the topology's radix r like the switch's port slices.  It keeps
// only the view its switch rule reads (head), in two word slices carved
// from per-network slabs, each array at a fixed offset:
//
//	head view:        w32 = cand (r·NumVLs)           w16 = vls (r), queued (r)
//	any-packet view:  w32 = dataCols, mgmtCols, req (r each)   w16 = nonEmpty (r·r)
//
// The any-packet view's summaries — the outputs whose dataCols /
// mgmtCols word is not zero, and the req columns that are valid — stay
// zero under the head view.
type reqIndex struct {
	w32                          []uint32
	w16                          []uint16
	r                            int
	dataOuts, mgmtOuts, reqValid uint32
	head                         bool
}

// Head view.  cand(p)[vl] is the set of inputs whose front packet on VL
// vl goes to output p; vls()[p] is the set of VLs with a non-empty cand
// set at output p; queued()[i] is the set of VLs whose buffer at input i
// is non-empty (whatever its front goes to).
func (x *reqIndex) cand(p int) []uint32 { return x.w32[p*arbtable.NumVLs : (p+1)*arbtable.NumVLs] }
func (x *reqIndex) vls() []uint16       { return x.w16[:x.r] }
func (x *reqIndex) queued() []uint16    { return x.w16[x.r : 2*x.r] }

// Any-packet view.  nonEmpty()[i*r+j] is the set of VLs whose buffer at
// input i holds a packet for output j.  dataCols()[j] is the set of
// inputs holding a data-VL packet for output j — column j of the widest
// request matrix a crossbar pass could build — and mgmtCols()[j] the set
// holding a VL 15 packet for it.  req()[j] is that column before input
// availability is applied, restricted to the inputs whose group (i, j)
// holds a data packet with downstream credit (voqBuildColumn); it is
// meaningful only while bit j of reqValid is set.  The bit is cleared
// wherever the column can change — add of the first data packet for j
// to a buffer, pop for j (which precedes every transmit on j, so the
// credit the transmit consumes is covered) and a credit return to output
// j (creditSwitch) — and voqColumn recomputes an invalid column the next
// time a crossbar pass or kick asks for it.
func (x *reqIndex) nonEmpty() []uint16 { return x.w16 }
func (x *reqIndex) dataCols() []uint32 { return x.w32[:x.r] }
func (x *reqIndex) mgmtCols() []uint32 { return x.w32[x.r : 2*x.r] }
func (x *reqIndex) req() []uint32      { return x.w32[2*x.r : 3*x.r] }

// newIndexes returns the request indexes of n switches of radix r
// keeping the head view (head) or the any-packet view, their words
// carved from two per-network slabs.
func newIndexes(n, r int, head bool) []reqIndex {
	n32, n16 := 3*r, r*r
	if head {
		n32, n16 = r*arbtable.NumVLs, 2*r
	}
	xs := make([]reqIndex, n)
	w32 := make([]uint32, n*n32)
	w16 := make([]uint16, n*n16)
	for k := range xs {
		xs[k] = reqIndex{w32: carve(&w32, n32), w16: carve(&w16, n16), r: r, head: head}
	}
	return xs
}

// add records a packet buffered at input i on VL vl and bound for
// output p, which is (front) or is not its buffer's front packet, in the
// live view.  A packet with no route (p < 0: its destination became
// unreachable under a repaired route set and the sweep has not removed
// it yet) requests nothing.
func (x *reqIndex) add(i, vl, p int, front bool) {
	if x.head {
		if front {
			x.queued()[i] |= 1 << vl
			x.request(i, vl, p)
		}
		return
	}
	if p < 0 {
		return
	}
	ne := &x.nonEmpty()[i*x.r+p]
	if *ne&(1<<vl) != 0 {
		return // not the first packet for p: no group head changed
	}
	*ne |= 1 << vl
	if vl == arbtable.MgmtVL {
		x.mgmtCols()[p] |= 1 << i
		x.mgmtOuts |= 1 << p
	} else {
		x.dataCols()[p] |= 1 << i
		x.dataOuts |= 1 << p
		x.reqValid &^= 1 << p
	}
}

// request records in the head view that input i's front packet on VL vl
// goes to output p.
func (x *reqIndex) request(i, vl, p int) {
	if p < 0 {
		return
	}
	x.cand(p)[vl] |= 1 << i
	x.vls()[p] |= 1 << vl
}

// push buffers pkt at input i of node on VL vl, stamps it with its
// output p and records it in the index.
func (node *swNode) push(i, vl, p int, pkt *Packet) {
	q := &node.in[i].queues[vl]
	pkt.out = int8(p)
	q.push(pkt)
	node.ix.add(i, vl, p, q.len() == 1)
}

// pop unlinks the first packet input i of node buffers on VL vl for
// output p and withdraws it from the live view.  Under the head view it
// is the front packet (the WRR rule sends nothing else), and its
// successor requests its own output.  Under the any-packet view it is a
// virtual output queue's head: the bits go when the last packet for p
// leaves the buffer, and since the transmit that follows consumes p's
// downstream credit, p's remembered request column is dropped.
func (node *swNode) pop(i, vl, p int) *Packet {
	x := &node.ix
	q := &node.in[i].queues[vl]
	if x.head {
		pkt := q.pop()
		c := &x.cand(p)[vl]
		if *c &^= 1 << i; *c == 0 {
			x.vls()[p] &^= 1 << vl
		}
		if next := q.front(); next != nil {
			x.request(i, vl, int(next.out))
		} else {
			x.queued()[i] &^= 1 << vl
		}
		return pkt
	}
	pkt := q.unlinkFirst(int8(p))
	x.reqValid &^= 1 << p
	if q.firstFor(int8(p)) != nil {
		return pkt
	}
	ne := &x.nonEmpty()[i*x.r+p]
	*ne &^= 1 << vl
	if vl == arbtable.MgmtVL {
		mc := x.mgmtCols()
		if mc[p] &^= 1 << i; mc[p] == 0 {
			x.mgmtOuts &^= 1 << p
		}
	} else if *ne&dataVLMask == 0 {
		dc := x.dataCols()
		if dc[p] &^= 1 << i; dc[p] == 0 {
			x.dataOuts &^= 1 << p
		}
	}
	return pkt
}

// indexOf builds a fresh request index of node, keeping the same view,
// from its buffers, every packet bound for its output under the current
// Network.Routes.  each sees every packet and that output before it is
// added, and may stop the build with an error.
func (n *Network) indexOf(node *swNode, each func(pkt *Packet, i, vl, p int) error) (reqIndex, error) {
	x := newIndexes(1, node.ix.r, node.ix.head)[0]
	for i := range node.in {
		for vl := range node.in[i].queues {
			q := &node.in[i].queues[vl]
			for pkt := q.front(); pkt != nil; pkt = q.after(pkt) {
				p := n.Routes.NextPort(node.id, pkt.Dst)
				if err := each(pkt, i, vl, p); err != nil {
					return x, err
				}
				x.add(i, vl, p, pkt == q.front())
			}
		}
	}
	return x, nil
}

// rebuildIndex re-stamps every buffered packet with its output under the
// current Network.Routes and gives every switch a fresh index built from
// its buffers.  The contract: code that pushes, pops or reorders switch
// input buffers anywhere but push and pop, or that replaces
// Network.Routes, calls it before the next scheduling pass runs.
func (n *Network) rebuildIndex() {
	for _, node := range n.switches {
		node.ix, _ = n.indexOf(node, func(pkt *Packet, _, _, p int) error {
			pkt.out = int8(p)
			return nil
		})
	}
}

// firstDiff returns the first index at which got and want differ, -1
// when they agree.
func firstDiff[T comparable](got, want []T) int {
	for k := range got {
		if got[k] != want[k] {
			return k
		}
	}
	return -1
}

// checkIndex audits everything a scheduling pass at one switch reads
// instead of scanning, against a full scan of its buffers: every
// buffered packet's stamped output against the routing tables (nothing
// buffered toward an unwired port), the live view of the index
// recomputed from the buffers (no stale bit, no missing bit) with the
// other view absent (no word carved for it, no summary or valid bit
// set), every remembered request column against a fresh computation
// from the packets and the current credit view and, under the VOQ rule,
// the crossbar's busy masks against the port timestamps.  It follows the
// buffers' links, so CheckBuffers runs it only once every chain has been
// found well formed.
func (n *Network) checkIndex(node *swNode) error {
	x := &node.ix
	want, err := n.indexOf(node, func(pkt *Packet, i, vl, p int) error {
		if int(pkt.out) != p {
			return fmt.Errorf("fabric: switch %d input %d VL %d buffers a packet to host %d for output %d, routes say %d",
				node.id, i, vl, pkt.Dst, pkt.out, p)
		}
		if p >= x.r || p >= 0 && !node.out[p].wired {
			return fmt.Errorf("fabric: switch %d input %d VL %d buffers a packet toward unwired port %d",
				node.id, i, vl, p)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(x.w32) != len(want.w32) || len(x.w16) != len(want.w16) {
		return fmt.Errorf("fabric: switch %d request index holds %d uint32 and %d uint16 words, the view its rule reads %d and %d",
			node.id, len(x.w32), len(x.w16), len(want.w32), len(want.w16))
	}
	if x.head {
		if x.dataOuts|x.mgmtOuts|x.reqValid != 0 {
			return fmt.Errorf("fabric: switch %d keeps the head view but any-packet summaries data %#08x VL 15 %#08x valid %#08x",
				node.id, x.dataOuts, x.mgmtOuts, x.reqValid)
		}
		if k := firstDiff(x.queued(), want.queued()); k >= 0 {
			return fmt.Errorf("fabric: switch %d input %d queued VL set %#04x, buffers say %#04x",
				node.id, k, x.queued()[k], want.queued()[k])
		}
		if k := firstDiff(x.w32, want.w32); k >= 0 {
			return fmt.Errorf("fabric: switch %d output %d VL %d head candidate set %#08x, buffers say %#08x",
				node.id, k/arbtable.NumVLs, k%arbtable.NumVLs, x.w32[k], want.w32[k])
		}
		if k := firstDiff(x.vls(), want.vls()); k >= 0 {
			return fmt.Errorf("fabric: switch %d output %d head VL set %#04x, buffers say %#04x",
				node.id, k, x.vls()[k], want.vls()[k])
		}
		return nil
	}
	if k := firstDiff(x.nonEmpty(), want.nonEmpty()); k >= 0 {
		return fmt.Errorf("fabric: switch %d VOQ (%d,%d) non-empty VL set %#04x, buffers say %#04x",
			node.id, k/x.r, k%x.r, x.nonEmpty()[k], want.nonEmpty()[k])
	}
	if x.dataOuts != want.dataOuts || x.mgmtOuts != want.mgmtOuts {
		return fmt.Errorf("fabric: switch %d output summaries data %#08x VL 15 %#08x, buffers say %#08x and %#08x",
			node.id, x.dataOuts, x.mgmtOuts, want.dataOuts, want.mgmtOuts)
	}
	if j := firstDiff(x.dataCols(), want.dataCols()); j >= 0 {
		return fmt.Errorf("fabric: switch %d output %d data input set %#08x, buffers say %#08x",
			node.id, j, x.dataCols()[j], want.dataCols()[j])
	}
	if j := firstDiff(x.mgmtCols(), want.mgmtCols()); j >= 0 {
		return fmt.Errorf("fabric: switch %d output %d VL 15 input set %#08x, buffers say %#08x",
			node.id, j, x.mgmtCols()[j], want.mgmtCols()[j])
	}
	if x.reqValid>>x.r != 0 {
		return fmt.Errorf("fabric: switch %d marks request columns %#08x valid beyond radix %d", node.id, x.reqValid, x.r)
	}
	capacity := n.bufferCapacity()
	for w := x.reqValid; w != 0; w &= w - 1 {
		j := bits.TrailingZeros32(w)
		if col := n.voqBuildColumn(node, j, capacity); x.req()[j] != col {
			return fmt.Errorf("fabric: switch %d output %d remembers request column %#08x, heads and credit say %#08x",
				node.id, j, x.req()[j], col)
		}
	}
	xb := node.xbar
	if xb == nil {
		return nil
	}
	now := n.shardForSwitch(node.id).eng.Now()
	for j := 0; j < x.r; j++ {
		if node.out[j].busyUntil > now && xb.busyOut&(1<<j) == 0 {
			return fmt.Errorf("fabric: switch %d output %d transmits until %d (now %d) but is not marked busy",
				node.id, j, node.out[j].busyUntil, now)
		}
		if node.in[j].busyUntil > now && xb.busyIn&(1<<j) == 0 {
			return fmt.Errorf("fabric: switch %d input %d holds its crossbar slot until %d (now %d) but is not marked busy",
				node.id, j, node.in[j].busyUntil, now)
		}
	}
	return nil
}

// switchRule is what a switch model decides about the shared pipeline:
// what a change at a switch marks for the end-of-instant phase, what a
// marked point's pass is, and which queue a forward's depth sample
// measures.  NewWithTopology picks one per network.
type switchRule interface {
	// kick marks switch s for a pass after the candidates of its output
	// port p may have changed (p < 0: a packet with no route, which
	// requests nothing).
	kick(sh *shard, s, p int)
	// inputFreed re-arms switch s after input i's crossbar slot freed
	// while a pass waited on it (evInputFree).
	inputFreed(sh *shard, s, i int)
	// pass runs the scheduling pass of the point the phase found marked:
	// output port p of switch s, or the whole switch under a rule that
	// marks switches (p = 0).
	pass(sh *shard, s, p int)
	// observeDepth samples the queue a forward from in's VL vl buffer
	// toward output p left behind.
	observeDepth(m *metrics.Metrics, in *inPort, p, vl int)
}

// kickSwitch re-arms switch s after a change at its output port p, by
// the network's switch rule.
func (sh *shard) kickSwitch(s, p int) { sh.n.rule.kick(sh, s, p) }

// creditSwitch re-arms switch s's output port p after its downstream
// buffer returned credit, which may make a blocked packet for p
// eligible: under the any-packet view the remembered request column p
// is dropped first.
func (sh *shard) creditSwitch(s, p int) {
	if x := &sh.n.switches[s].ix; !x.head {
		x.reqValid &^= 1 << p
	}
	sh.kickSwitch(s, p)
}

// armInputFree queues the wake-up of input i of node at the end of its
// crossbar transfer, for the pass of output port p (p < 0: of the whole
// switch) that waits on it — unless one is queued already.  The input
// must be busy.
func (sh *shard) armInputFree(node *swNode, i, p int) {
	in := &node.in[i]
	if in.freeArmed {
		return
	}
	in.freeArmed = true
	if p >= 0 {
		in.waiter = uint8(p + 1)
		node.out[p].waitsOn = uint8(i + 1)
	}
	in.wake = sh.eng.PostTimerAfter(in.busyUntil-sh.eng.Now(), sh, sim.Event{Kind: evInputFree, A: int32(node.id), B: int32(i)})
}

// settleWait runs when WRR output port p of node starts transmitting: it
// no longer waits, so the wake-up its wait armed is canceled if the port
// still owns it.  The other idle ports the input's front packets request
// may have counted on that wake-up, so each settles its wait again
// (wrrWait) — those still to pass this instant do so themselves.
func (sh *shard) settleWait(node *swNode, p int, now int64) {
	out := &node.out[p]
	k := int(out.waitsOn)
	if k == 0 {
		return
	}
	out.waitsOn = 0
	in := &node.in[k-1]
	if !in.freeArmed || int(in.waiter) != p+1 {
		return
	}
	sh.eng.Cancel(in.wake)
	in.freeArmed, in.waiter = false, 0
	for vls := node.ix.queued()[k-1]; vls != 0; vls &= vls - 1 {
		q := int(in.queues[bits.TrailingZeros16(vls)].front().out)
		if q >= 0 && q != p && node.out[q].busyUntil <= now && !sh.dirty.has(int(switchCode(node.id, q))) {
			sh.wrrWait(node, q, now)
		}
	}
}

// wrrRule is the paper's output-driven switch of section 4.1: only a
// buffer's front packet may go, and every output port schedules alone
// over the front packets routed to it.
type wrrRule struct{}

// kick marks output port p for a pass at the end of the instant — if
// the pass could send.  It marks nothing while the port transmits (its
// own evXmitDone at busyUntil kicks it again) and, without a fault
// schedule, while no front packet requests the port, VL 15 included:
// neither can change before the phase, since only a pass transmits and
// every event that adds a request kicks the port it requests.  Under a
// fault schedule the pass is also what arms the wake-up at the end of a
// fault window, so there an unrequested port is still marked.
func (wrrRule) kick(sh *shard, s, p int) {
	if p < 0 {
		return
	}
	n := sh.n
	node := n.switches[s]
	out := &node.out[p]
	if !out.wired || n.wrrPassIdle(node, out, p, sh.eng.Now()) {
		return
	}
	sh.markDirty(int(switchCode(s, p)))
}

// wrrPassIdle is the kick's test of a pass that could not send: output
// port p of node (out) is transmitting at now, or — without a fault
// schedule — no front packet requests it.
func (n *Network) wrrPassIdle(node *swNode, out *outPort, p int, now int64) bool {
	return out.busyUntil > now || n.Faults == nil && node.ix.vls()[p] == 0
}

// inputFreed re-arms exactly the output ports the front packets of
// input i go to — the ports whose candidates changed when its crossbar
// slot freed.
func (r wrrRule) inputFreed(sh *shard, s, i int) {
	node := sh.n.switches[s]
	for vls := node.ix.queued()[i]; vls != 0; vls &= vls - 1 {
		r.kick(sh, s, int(node.in[i].queues[bits.TrailingZeros16(vls)].front().out))
	}
}

func (wrrRule) pass(sh *shard, s, p int) { sh.trySwitch(s, p) }

// observeDepth samples the input VL buffer the packet left.
func (wrrRule) observeDepth(m *metrics.Metrics, in *inPort, _, vl int) {
	m.ObserveQueueDepth(int64(in.queues[vl].len()))
}

// trySwitch runs one WRR arbitration decision at a switch output port:
// the candidates are the front packets routed to this port whose input
// crossbar slot is free and whose downstream buffer has room.  A pass
// that leaves the port idle arms the wake-up of a busy input whose front
// packet requests it (wrrWait): nothing else would pass the port again
// when that input's transfer ends.  A pass that sends drops the port's
// claim on such a wake-up (settleWait).
func (sh *shard) trySwitch(s, p int) {
	n := sh.n
	node := n.switches[s]
	out := &node.out[p]
	now := sh.eng.Now()
	if !out.wired || out.busyUntil > now {
		return
	}
	if n.Faults != nil && sh.faultBlocked(out, faults.SwitchPortKey(s, p), now) {
		return
	}
	x := &node.ix
	cand := x.cand(p)
	if i := n.mgmtCandidate(node, p, cand[arbtable.MgmtVL], now); i >= 0 {
		sh.transmit(out, sh.take(node, i, p, arbtable.MgmtVL, now), switchCode(s, i), arbtable.MgmtVL)
		sh.settleWait(node, p, now)
		return
	}
	var o offer
	if !n.dataCandidates(node, p, x.vls()[p]&dataVLMask, cand, now, &o) {
		out.arb.Stall()
	} else if sh.serve(node, p, &o, now) {
		sh.settleWait(node, p, now)
		return
	}
	sh.wrrWait(node, p, now)
}

// wrrWait arms, for output port p of node, idle at now, the wake-up of
// the busy input whose front packet requests p with credit and frees
// first — unless one that frees no later is armed already.  The pass the
// wake-up runs arms the next one if the port is still waiting.  An
// input without credit waits for the credit return, which kicks the
// port.
func (sh *shard) wrrWait(node *swNode, p int, now int64) {
	n := sh.n
	out := &node.out[p]
	cand := node.ix.cand(p)
	wake, at, armed := -1, int64(0), int64(math.MaxInt64)
	for vls := node.ix.vls()[p]; vls != 0; vls &= vls - 1 {
		vl := bits.TrailingZeros16(vls)
		for c := cand[vl]; c != 0; c &= c - 1 {
			i := bits.TrailingZeros32(c)
			in := &node.in[i]
			if in.busyUntil <= now || !n.hasCredit(node, out, vl, in.queues[vl].front()) {
				continue
			}
			if in.freeArmed {
				armed = min(armed, in.busyUntil)
			} else if wake < 0 || in.busyUntil < at {
				wake, at = i, in.busyUntil
			}
		}
	}
	if wake >= 0 && at < armed {
		sh.armInputFree(node, wake, p)
	}
}

// hasCredit reports whether pkt, buffered at node on VL vl, fits the
// downstream buffer of out on the lane it would leave by.
func (n *Network) hasCredit(node *swNode, out *outPort, vl int, pkt *Packet) bool {
	down := n.occView(out)
	if down == nil {
		return true
	}
	if n.planes > 1 && vl != arbtable.MgmtVL {
		vl = int(n.Routes.HopVL(node.id, pkt.Dst, pkt.Base))
	}
	return int(down[vl])+pkt.Wire <= n.bufferCapacity()
}

// cyclicFrom splits an input set at a round-robin cursor: visiting the
// set bits of the first word in ascending order and then those of the
// second reproduces the order (rr+k) mod radix, k = 0, 1, ...,
// restricted to the members of set — so the first member that passes a
// predicate is the one a full scan from the cursor would have found.
func cyclicFrom(set uint32, rr int) [2]uint32 {
	below := uint32(1)<<uint(rr) - 1
	return [2]uint32{set &^ below, set & below}
}

// mgmtCandidate is the VL 15 stage: subnet management preempts every
// data lane, so output p of node first serves the first input of set,
// in round-robin order from the port's VL 15 cursor, that is free at
// now and whose VL 15 packet for p has downstream credit.  It returns
// that input, or -1.
func (n *Network) mgmtCandidate(node *swNode, p int, set uint32, now int64) int {
	const vl = arbtable.MgmtVL
	if set == 0 {
		return -1
	}
	out := &node.out[p]
	down := n.occView(out)
	capacity := n.bufferCapacity()
	for _, w := range cyclicFrom(set, int(out.rr[vl])) {
		for ; w != 0; w &= w - 1 {
			i := bits.TrailingZeros32(w)
			in := &node.in[i]
			if in.busyUntil > now {
				continue
			}
			if down != nil && int(down[vl])+in.queues[vl].firstFor(int8(p)).Wire > capacity {
				continue
			}
			return i
		}
	}
	return -1
}

// offer is what a pass hands output p's arbiter: ready[vl] is the wire
// size of the packet offered on OUTGOING wire VL vl (0 = none), src[vl]
// the input holding it and srcVL[vl] the VL it is buffered on.
type offer struct {
	ready      arbtable.Ready
	src, srcVL [arbtable.NumDataVLs]uint8
}

// dataCandidates fills o with the data candidates of output port p of
// node: per buffered VL in vls, the first input of sets[vl] — in
// round-robin order from the port's cursor — that is free at now and
// whose first packet for p has credit on its outgoing lane.  Under a
// single-plane engine the outgoing VL is the buffered VL itself;
// multi-plane engines may shift a packet into its escape plane here, so
// the arbiter sees — and the downstream credit check guards — the lane
// the packet will actually occupy on the next link.  The WRR rule passes
// the head view's candidate sets; the VOQ rule passes the matched input
// alone.  It reports whether it found any candidate.
func (n *Network) dataCandidates(node *swNode, p int, vls uint16, sets []uint32, now int64, o *offer) (found bool) {
	out := &node.out[p]
	down := n.occView(out)
	capacity := n.bufferCapacity()
nextVL:
	for ; vls != 0; vls &= vls - 1 {
		invl := bits.TrailingZeros16(vls)
		for _, w := range cyclicFrom(sets[invl], int(out.rr[invl])) {
			for ; w != 0; w &= w - 1 {
				i := bits.TrailingZeros32(w)
				in := &node.in[i]
				if in.busyUntil > now {
					continue
				}
				pkt := in.queues[invl].firstFor(int8(p))
				outvl := invl
				if n.planes > 1 {
					outvl = int(n.Routes.HopVL(node.id, pkt.Dst, pkt.Base))
					if o.ready[outvl] != 0 {
						continue // lane claimed by an earlier input VL
					}
				}
				if down != nil && int(down[outvl])+pkt.Wire > capacity {
					continue // no credit toward the next switch
				}
				o.ready[outvl] = pkt.Wire
				o.src[outvl] = uint8(i)
				o.srcVL[outvl] = uint8(invl)
				found = true
				continue nextVL
			}
		}
	}
	return found
}

// serve is the tail of a pass under either rule: output p's arbitration
// table picks a lane among the offered candidates — the table decides
// which lane goes whichever rule chose the inputs, which is what keeps
// the paper's guarantee across the crossbar — and the packet behind it
// is taken, metered, traced and put on the wire.  It reports whether the
// table picked anything.
func (sh *shard) serve(node *swNode, p int, o *offer, now int64) bool {
	n := sh.n
	out := &node.out[p]
	vl, ok := sh.pick(out, &o.ready, n.switchTraceID(node.id, p), now)
	if !ok {
		return false
	}
	i, invl := int(o.src[vl]), int(o.srcVL[vl])
	pkt := sh.take(node, i, p, invl, now)
	pkt.VL = uint8(vl)
	if m := sh.metrics; m != nil {
		m.AddVLBytes(vl, pkt.Wire)
		n.rule.observeDepth(m, &node.in[i], p, invl)
	}
	if n.onDequeue != nil {
		n.onDequeue(node.id, i, p, invl)
	}
	if n.OnForward != nil {
		n.OnForward(pkt, node.id, p)
	}
	sh.transmit(out, pkt, switchCode(node.id, i), uint8(invl))
	return true
}

// take pops the packet input i of node holds for output p on VL vl (see
// pop), moves p's round-robin cursor for vl past i and holds i's
// crossbar slot for the transfer: wire/CrossbarSpeedup byte times.
// Under the head view the pop may expose a new front packet, whose
// output no kick announces: if that output is idle, the transfer's end
// may be what it waits for, so the take settles its wait (wrrWait) —
// unless the output's own pass is still to come this instant, which
// finds the input busy and settles it if the port stays idle
// (trySwitch).  The input-queued rule settles its waits at the end of
// its whole-switch pass (voqWait).
func (sh *shard) take(node *swNode, i, p, vl int, now int64) *Packet {
	pkt := node.pop(i, vl, p)
	node.out[p].rr[vl] = uint8((i + 1) % len(node.out))
	xfer := int64(pkt.Wire) / int64(sh.n.Cfg.CrossbarSpeedup)
	if xfer < 1 {
		xfer = 1
	}
	node.in[i].busyUntil = now + xfer
	if node.ix.head {
		if next := node.in[i].queues[vl].front(); next != nil && next.out >= 0 {
			if r := int(next.out); node.out[r].busyUntil <= now && !sh.dirty.has(int(switchCode(node.id, r))) {
				sh.wrrWait(node, r, now)
			}
		}
	}
	return pkt
}
