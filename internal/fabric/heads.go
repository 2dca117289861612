package fabric

import (
	"fmt"
	"math/bits"

	"repro/internal/arbtable"
	"repro/internal/topology"
)

// This file is the WRR switch's candidate index — the request-matrix
// view of an output-queued arbiter.  An output port's arbitration
// candidates are the HEAD packets of the input VL queues that route to
// it; instead of probing every (input, VL) queue of the switch on every
// scheduling pass, each switch keeps, per (output port, queueing VL),
// the set of inputs whose head on that VL currently requests the port.
// A queue's head changes at exactly three kinds of place, and those are
// the only places the index is written:
//
//   - arrive pushes into an empty queue (headPushed),
//   - trySwitch pops a head, exposing the packet behind it (headPopped,
//     for the data-VL pick and the VL 15 pick alike),
//   - anything that edits queues or swaps Network.Routes outside the
//     hot path — today only failure recovery's activation — calls
//     rebuildHeads once when it is done.
//
// CheckBuffers recomputes every set from the queues and fails on any
// disagreement, so every experiment audit also audits the index.

// The input sets are uint32 words, one bit per input port.  (The iSLIP
// request rows in voq.go rely on the same bound.)
const _ = uint(32 - topology.SwitchPorts)

// dataVLMask selects the data VLs of a per-port VL set.
const dataVLMask = uint16(1)<<arbtable.NumDataVLs - 1

// headIndex is one WRR switch's candidate index, sized from the
// topology's radix like the switch's port slices.
type headIndex struct {
	// cand[p*NumVLs+vl] is the set of input ports whose head packet on
	// queueing VL vl routes to output port p.
	cand []uint32
	// vls[p] is the set of VLs with a non-empty cand set at output p.
	vls []uint16
	// queued[i] is the set of VLs whose queue at input port i is
	// non-empty (whatever its head routes to).
	queued []uint16
}

// newHeadIndexes returns the candidate indexes of n switches of the
// given port count, their words carved from three per-network slabs.
func newHeadIndexes(n, ports int) []headIndex {
	hx := make([]headIndex, n)
	cand := make([]uint32, n*ports*arbtable.NumVLs)
	vls := make([]uint16, n*ports)
	queued := make([]uint16, n*ports)
	for i := range hx {
		hx[i] = headIndex{
			cand:   carve(&cand, ports*arbtable.NumVLs),
			vls:    carve(&vls, ports),
			queued: carve(&queued, ports),
		}
	}
	return hx
}

// request records that input i's head on VL vl routes to output p.  A
// head with no route (p < 0: its destination became unreachable under a
// repaired route set and the sweep has not removed it yet) requests
// nothing.
func (hx *headIndex) request(p, vl, i int) {
	if p < 0 {
		return
	}
	hx.cand[p*arbtable.NumVLs+vl] |= 1 << uint(i)
	hx.vls[p] |= 1 << uint(vl)
}

// headPushed maintains the index after pkt was pushed onto input i's
// VL queue q, where it routes to output p.
func (hx *headIndex) headPushed(q *pktQueue, p, vl, i int) {
	if q.len() != 1 {
		return // the head did not change
	}
	hx.queued[i] |= 1 << uint(vl)
	hx.request(p, vl, i)
}

// headPopped maintains the index after the head of input i's VL queue
// q — which routed to output p — was popped: the request is withdrawn
// and the packet behind it, if any, requests its own output.
func (n *Network) headPopped(node *swNode, q *pktQueue, p, vl, i int) {
	hx := node.heads
	c := &hx.cand[p*arbtable.NumVLs+vl]
	*c &^= 1 << uint(i)
	if *c == 0 {
		hx.vls[p] &^= 1 << uint(vl)
	}
	if q.len() == 0 {
		hx.queued[i] &^= 1 << uint(vl)
		return
	}
	hx.request(n.Routes.NextPort(node.id, q.front().Dst), vl, i)
}

// rebuildHeads recomputes every switch's candidate index from its
// queues under the current Network.Routes.  The contract: code that
// pushes, pops or reorders switch input queues anywhere but arrive and
// trySwitch, or that replaces Network.Routes, must call it before the
// next scheduling pass runs.
func (n *Network) rebuildHeads() {
	for _, node := range n.switches {
		hx := node.heads
		if hx == nil {
			continue
		}
		clear(hx.cand)
		clear(hx.vls)
		clear(hx.queued)
		for i := range hx.queued {
			for vl := range node.in[i].queues {
				q := &node.in[i].queues[vl]
				if q.len() == 0 {
					continue
				}
				hx.queued[i] |= 1 << uint(vl)
				hx.request(n.Routes.NextPort(node.id, q.front().Dst), vl, i)
			}
		}
	}
}

// checkHeads audits one switch's candidate index against a full scan
// of its input queues: no stale bit, no missing bit, nothing requested
// from an unwired port or by a head without a route.
func (n *Network) checkHeads(node *swNode) error {
	hx := node.heads
	ports := len(node.out)
	want := make([]uint32, len(hx.cand))
	for i := range node.in {
		var queued uint16
		for vl := range node.in[i].queues {
			q := &node.in[i].queues[vl]
			if q.len() == 0 {
				continue
			}
			queued |= 1 << uint(vl)
			p := n.Routes.NextPort(node.id, q.front().Dst)
			if p < 0 {
				continue
			}
			if p >= ports || !node.out[p].wired {
				return fmt.Errorf("fabric: switch %d input %d VL %d head routes to unwired port %d",
					node.id, i, vl, p)
			}
			want[p*arbtable.NumVLs+vl] |= 1 << uint(i)
		}
		if hx.queued[i] != queued {
			return fmt.Errorf("fabric: switch %d input %d non-empty VL set %#04x, queues say %#04x",
				node.id, i, hx.queued[i], queued)
		}
	}
	for p := 0; p < ports; p++ {
		var vls uint16
		for vl := 0; vl < arbtable.NumVLs; vl++ {
			k := p*arbtable.NumVLs + vl
			if hx.cand[k] != want[k] {
				return fmt.Errorf("fabric: switch %d port %d VL %d candidate set %#08x, queues say %#08x",
					node.id, p, vl, hx.cand[k], want[k])
			}
			if want[k] != 0 {
				vls |= 1 << uint(vl)
			}
		}
		if hx.vls[p] != vls {
			return fmt.Errorf("fabric: switch %d port %d VL set %#04x, candidate sets say %#04x",
				node.id, p, hx.vls[p], vls)
		}
	}
	return nil
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

// mgmtCandidate returns the input port whose VL 15 head output port p
// of node serves next — the first eligible one in round-robin input
// order — or -1.  down is the credit view of the downstream buffer
// (nil for hosts).
func (n *Network) mgmtCandidate(node *swNode, out *outPort, p int, now int64,
	down *[arbtable.NumVLs]int32, capacity int) int {
	const vl = arbtable.MgmtVL
	set := node.heads.cand[p*arbtable.NumVLs+vl]
	if set == 0 {
		return -1
	}
	for _, w := range cyclicFrom(set, int(out.rr[vl])) {
		for ; w != 0; w &= w - 1 {
			i := bits.TrailingZeros32(w)
			in := &node.in[i]
			if in.busyUntil > now {
				continue
			}
			if down != nil && int(down[vl])+in.queues[vl].front().Wire > capacity {
				continue
			}
			return i
		}
	}
	return -1
}

// dataCandidates fills in the arbitration candidates of output port p
// of node: ready[vl] is the wire size of the packet offered on OUTGOING
// wire VL vl (0 = none), src[vl] the input port holding it and
// srcVL[vl] the VL it is queued on.  Under a single-plane engine the
// outgoing VL is the queueing VL itself; multi-plane engines may shift
// a packet into its escape plane here, so the arbiter sees — and the
// downstream credit check guards — the lane the packet will actually
// occupy on the next link.  Per queueing VL the candidate is the first
// eligible input in round-robin order from out.rr.  It reports whether
// it found any candidate.
func (n *Network) dataCandidates(node *swNode, out *outPort, p int, now int64,
	down *[arbtable.NumVLs]int32, capacity int,
	ready *arbtable.Ready, src *[arbtable.NumDataVLs]int, srcVL *[arbtable.NumDataVLs]uint8) (found bool) {
	hx := node.heads
	s := node.id
nextVL:
	for vls := hx.vls[p] & dataVLMask; vls != 0; vls &= vls - 1 {
		invl := bits.TrailingZeros16(vls)
		for _, w := range cyclicFrom(hx.cand[p*arbtable.NumVLs+invl], int(out.rr[invl])) {
			for ; w != 0; w &= w - 1 {
				i := bits.TrailingZeros32(w)
				in := &node.in[i]
				if in.busyUntil > now {
					continue
				}
				pkt := in.queues[invl].front()
				outvl := invl
				if n.planes > 1 {
					outvl = int(n.Routes.HopVL(s, pkt.Dst, pkt.Base))
					if ready[outvl] != 0 {
						continue // lane claimed by an earlier input VL
					}
				}
				if down != nil && int(down[outvl])+pkt.Wire > capacity {
					continue // no credit toward the next switch
				}
				ready[outvl] = pkt.Wire
				src[outvl] = i
				srcVL[outvl] = uint8(invl)
				found = true
				continue nextVL
			}
		}
	}
	return found
}
