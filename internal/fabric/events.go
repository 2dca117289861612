package fabric

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// This file is the fabric's typed-event surface: the kind space its
// models schedule on the engine, the dispatch switch, and the pooled
// packet/queue machinery that keeps the steady-state packet path free
// of allocation.  Every hot-path event the data plane schedules is a
// sim.Event carrying small integer operands (port codes, VL, wire
// bytes) plus at most the packet pointer — no closures, so forwarding
// a packet through a hop allocates nothing once the pools are warm.

// Event kinds of the data plane.  Operand conventions are documented
// per kind; port codes follow portCode (hosts negative, switch ports
// s*SwitchPorts+p).  Scheduling passes are not events: a kick marks its
// port (or, under the input-queued rule, its switch) in the shard's
// dirty set, and the shard's end-of-instant phase passes every marked
// point once (see endInstant in shard.go).
const (
	// evGenerate creates one packet of the flow in P and reschedules
	// itself at the flow's pacing gap.
	evGenerate sim.Kind = iota
	// evKickHost re-arms host A's interface at a future time (end of a
	// fault window).
	evKickHost
	// evKickSwitch re-arms switch A's output port B at a future time
	// (the end of a fault window, a table swap posted from the control
	// lane); B = -1 names the whole switch, whose crossbar pass left
	// work for the next byte-time (voqWait).
	evKickSwitch
	// evInputFree fires when input port B of switch A finishes a
	// crossbar transfer that a pass is waiting on: the switch rule
	// re-arms what the freed slot may feed.  It is posted only where a
	// pass waits (armInputFree), at most one at a time per input, and
	// canceled when the output whose wait armed it starts transmitting
	// (settleWait).
	evInputFree
	// evXmitDone fires when a packet has fully left its source buffer:
	// A is the transmitting out-port code, B the source switch-input
	// code (-1 when the source was a host queue), N packs vl<<32|wire.
	evXmitDone
	// evArrive lands the packet in P at the far end of out-port A's
	// link.  B carries the packet's generation at scheduling time; a
	// mismatch means the packet was recycled and the event is stale.
	evArrive
)

// portCode encodes an arbitration point in one int32: host h is
// -(h+1), switch s's output port p is s*SwitchPorts+p.
//
// A switch's ports are radix-length slices (see NewWithTopology); the
// code keeps the SwitchPorts stride because a constant power of two
// makes the decode on every transmit, credit and arrival event a shift
// and a mask.  Besides the iSLIP pointer and matching arrays, which the
// benchmark's probes compile against, this stride and the uint32
// port-set width are the cap's only remaining uses in the fabric.
func hostCode(h int) int32      { return int32(-(h + 1)) }
func switchCode(s, p int) int32 { return int32(s*topology.SwitchPorts + p) }

// switchPort decodes a switch port code (code >= 0).
func switchPort(code int32) (s, p int) {
	return int(code) / topology.SwitchPorts, int(code) % topology.SwitchPorts
}

// outPortByCode resolves a port code to its outPort.
func (n *Network) outPortByCode(code int32) *outPort {
	if code < 0 {
		return &n.hosts[-code-1].out
	}
	s, p := switchPort(code)
	return &n.switches[s].out[p]
}

// HandleEvent dispatches the fabric's typed events.  It implements
// sim.Handler; each shard's engine calls its own shard's dispatch, so
// every hot-path handler below runs confined to one shard's state.
func (sh *shard) HandleEvent(ev sim.Event) {
	n := sh.n
	switch ev.Kind {
	case evGenerate:
		sh.generate(ev.P.(*Flow))
	case evKickHost:
		sh.kickHost(int(ev.A))
	case evKickSwitch:
		sh.kickSwitch(int(ev.A), int(ev.B))
	case evInputFree:
		in := &n.switches[ev.A].in[ev.B]
		in.freeArmed, in.waiter = false, 0
		sh.inputWakes++
		n.rule.inputFreed(sh, int(ev.A), int(ev.B))
	case evXmitDone:
		sh.xmitDone(ev.A, ev.B, int(ev.N>>32), int(int32(ev.N)))
	case evArrive:
		pkt := ev.P.(*Packet)
		if pkt.gen != uint32(ev.B) {
			// The packet was recycled while this event was in flight;
			// reviving it would corrupt two flows at once.
			sh.staleArrivals++
			return
		}
		sh.arrive(n.outPortByCode(ev.A), pkt)
	}
}

// xmitDone completes a transmission: the packet has fully left its
// source buffer, so the credit returns to whoever feeds that buffer
// (returnCredit), and the transmitting port is kicked for its next
// scheduling pass.
func (sh *shard) xmitDone(outCode, srcCode int32, vl, wire int) {
	n := sh.n
	if srcCode >= 0 {
		s, i := switchPort(srcCode)
		if n.crashed != nil && n.crashed[s] {
			// The source buffer belongs to a crashed switch whose credit
			// state was wiped at drain time; decrementing now would drive
			// the zeroed occupancy negative, and there is nobody left to
			// credit.
			return
		}
		sh.returnCredit(&n.switches[s].in[i], vl, wire)
	}
	if outCode < 0 {
		sh.kickHost(int(-outCode) - 1)
	} else {
		sh.kickSwitch(switchPort(outCode))
	}
}

// returnCredit frees wire bytes of input buffer in on VL vl and re-arms
// whoever feeds it (creditSwitch, kickHost); a credit owed across a
// shard boundary is batched for the barrier flush instead.
func (sh *shard) returnCredit(in *inPort, vl, wire int) {
	in.occ[vl] -= int32(wire)
	switch {
	case in.upSwitch >= 0:
		if in.upBoundary {
			sh.credits = append(sh.credits, creditReturn{
				code: switchCode(int(in.upSwitch), int(in.upPort)), vl: uint8(vl), wire: int32(wire),
			})
		} else {
			sh.creditSwitch(int(in.upSwitch), int(in.upPort))
		}
	case in.upHost >= 0:
		sh.kickHost(int(in.upHost))
	}
}

// StaleArrivals returns the number of arrival events dropped because
// their packet had been recycled — the generation counters' audit
// trail.  On a correct schedule it stays zero.
func (n *Network) StaleArrivals() int64 {
	var total int64
	for _, sh := range n.shards {
		total += sh.staleArrivals
	}
	return total
}

// packetChunk is how many packet records an empty free-list is refilled
// with at once: one object instead of 73 small ones.  73 56-byte records
// plus the 8-byte header the runtime gives a pointer-holding object of
// this size fill the 4 096-byte size class; 74 records would spill into
// the next class and waste most of it.
const packetChunk = 73

// newPacket takes a packet from the shard's free-list (refilling an
// empty list with a chunk of fresh records) and stamps it with the
// given identity.  The generation survives from the record's previous
// life — stale events still in flight carry the old generation and are
// dropped on arrival.  A packet is created by the source shard and
// retired by the destination's, so records migrate between free-lists
// along the traffic matrix; each list only ever mutates under its own
// shard's events.  With pools disabled every packet is a fresh object.
func (sh *shard) newPacket(f *Flow, vl uint8, dst, wire int, injected int64) *Packet {
	var pkt *Packet
	if sh.n.poolDisabled {
		pkt = &Packet{}
	} else {
		if len(sh.pktFree) == 0 {
			chunk := make([]Packet, packetChunk)
			for i := len(chunk) - 1; i >= 0; i-- {
				sh.pktFree = append(sh.pktFree, &chunk[i])
			}
		}
		k := len(sh.pktFree)
		pkt = sh.pktFree[k-1]
		sh.pktFree[k-1] = nil
		sh.pktFree = sh.pktFree[:k-1]
	}
	pkt.Flow, pkt.VL, pkt.Base, pkt.Dst, pkt.Wire = f, vl, f.Base, dst, wire
	pkt.Injected = injected
	return pkt
}

// freePacket retires a packet: its generation is bumped so in-flight
// events referencing it fall dead, and the record returns to this
// shard's free-list for the next newPacket.
func (sh *shard) freePacket(pkt *Packet) {
	pkt.gen++
	pkt.Flow = nil
	if sh.n.poolDisabled {
		return
	}
	sh.pktFree = append(sh.pktFree, pkt)
}

// pktQueue is an intrusive FIFO of packets linked through Packet.next
// into a ring: the queue keeps only its tail, whose link is the head,
// so a header is 16 bytes whether the queue is empty or not, and there
// is no buffer to grow, so an empty queue costs nothing beyond its
// header and a steady-state queue never allocates.  A packet sits in at
// most one queue at a time — queued, in flight and free are disjoint
// states, and every move between queues (forwarding, failover's drain
// and filter passes) pops or unlinks before it pushes — so one link
// field suffices.  A packet outside every queue holds no link: pop and
// unlinkFirst clear it.  Walks go from front to tail through after,
// never through the raw links, which close the ring.
//
// A switch input buffer is also read by output port (Packet.out): the
// first packet bound for output j is the head of that buffer's VOQ
// toward j, and unlinkFirst takes it out of the middle of the chain
// under the input-queued rule.  Those walks visit at most the packets
// the buffer holds, which credit bounds (see voqRule).
type pktQueue struct {
	tail *Packet // nil when empty; tail.next is the head
	n    int
}

func (q *pktQueue) len() int { return q.n }

// front returns the head packet, nil when the queue is empty.
func (q *pktQueue) front() *Packet {
	if q.tail == nil {
		return nil
	}
	return q.tail.next
}

// after returns the packet behind p in q, nil when p is the tail.
func (q *pktQueue) after(p *Packet) *Packet {
	if p == q.tail {
		return nil
	}
	return p.next
}

func (q *pktQueue) push(p *Packet) {
	if q.tail == nil {
		p.next = p
	} else {
		p.next = q.tail.next
		q.tail.next = p
	}
	q.tail = p
	q.n++
}

func (q *pktQueue) pop() *Packet {
	p := q.tail.next
	if p == q.tail {
		q.tail = nil
	} else {
		q.tail.next = p.next
	}
	p.next = nil
	q.n--
	return p
}

// firstFor returns the first packet in q bound for output port out, nil
// when none is.
func (q *pktQueue) firstFor(out int8) *Packet {
	for p := q.front(); p != nil; p = q.after(p) {
		if p.out == out {
			return p
		}
	}
	return nil
}

// countFor returns the number of packets in q bound for output port out.
func (q *pktQueue) countFor(out int8) (k int) {
	for p := q.front(); p != nil; p = q.after(p) {
		if p.out == out {
			k++
		}
	}
	return k
}

// unlinkFirst removes and returns the first packet in q bound for output
// port out; q must hold one.  The packets around it keep their order.
func (q *pktQueue) unlinkFirst(out int8) *Packet {
	prev := q.tail
	p := prev.next
	for p.out != out {
		prev, p = p, p.next
	}
	switch {
	case p == prev: // the only packet
		q.tail = nil
	case p == q.tail:
		prev.next = p.next
		q.tail = prev
	default:
		prev.next = p.next
	}
	p.next = nil
	q.n--
	return p
}

// wireBytes walks the ring and returns the wire bytes it holds, for
// CheckBuffers.  It fails unless the ring is well formed: n steps from
// the head reach the tail and close the ring, no earlier step meets
// the tail, and an empty queue holds no tail.
func (q *pktQueue) wireBytes() (int, error) {
	if q.n == 0 {
		if q.tail != nil {
			return 0, fmt.Errorf("empty queue still holds tail %p", q.tail)
		}
		return 0, nil
	}
	if q.tail == nil {
		return 0, fmt.Errorf("queue of %d packets holds no tail", q.n)
	}
	head := q.tail.next
	wire := 0
	p := head
	for k := 1; k < q.n; k++ {
		if p == nil || p == q.tail {
			return 0, fmt.Errorf("a walk from head ends after %d of %d packets", k, q.n)
		}
		wire += p.Wire
		p = p.next
	}
	if p != q.tail {
		return 0, fmt.Errorf("a walk of %d packets does not end at tail", q.n)
	}
	return wire + p.Wire, nil
}
