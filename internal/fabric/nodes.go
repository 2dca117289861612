package fabric

import (
	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// inPort is one switch input port: a FIFO queue per data VL plus the
// credit state its upstream sender observes.  Buffer occupancy (occ)
// is maintained by the *sender* at transmission start and decremented
// when the packet leaves the buffer, so credits can never be
// overcommitted while a packet is on the wire.
type inPort struct {
	queues [arbtable.NumVLs]pktQueue
	occ    [arbtable.NumVLs]int32 // reserved bytes per VL buffer
	// busyUntil models the multiplexed crossbar: only one VL of an
	// input port can be transmitting through the switch at a time.  No
	// event ends a transfer by default: a pass reads the timestamp.
	// While an idle output waits on this input, an evInputFree is queued
	// for busyUntil (armInputFree): wake is its handle, freeArmed says
	// it is queued, and waiter is the output port whose wait armed it,
	// plus one (0: none, or the whole switch under the input-queued
	// rule).
	busyUntil int64
	wake      sim.Timer

	// Upstream end of the link feeding this port, for credit kicks:
	// either a switch output port (upSwitch >= 0) or a host (upHost
	// >= 0); unused ports have both negative.
	upSwitch, upPort int32
	upHost           int32

	// upBoundary marks an upstream switch owned by another shard in a
	// parallel sharded run: freed credits are then batched for the
	// barrier flush instead of kicking the upstream port directly.
	// Never set for host upstreams (hosts share their attachment
	// switch's shard) or outside parallel mode.
	upBoundary bool
	freeArmed  bool
	waiter     uint8
}

// outPort is one scheduling point: a switch output port or a host
// interface.  It owns the weighted round-robin arbiter over the
// arbitration table that admission control fills in.
type outPort struct {
	arb       *arbtable.Arbiter // nil on unwired switch ports, which never arbitrate
	busyUntil int64
	// wakeAt is the end of the fault window the port last posted a
	// wake-up for (see faultBlocked); 0 before the first.
	wakeAt int64

	// pt is the port's control/data-plane table pair; the arbiter
	// reads pt.Active().  Used to count packets scheduled while a
	// table program is in flight (stale epoch).
	pt *core.PortTable

	// code is this port's typed-event operand (see portCode): the
	// transmit-completion and wake-up events name the port by it
	// instead of capturing it in a closure.
	code int32
	// waitsOn is the input whose evInputFree this port's wait last
	// armed, plus one (0: none): a transmit here cancels it if the port
	// still owns it (settleWait).
	waitsOn uint8

	// Round-robin cursor among input ports, per VL, so equal-VL heads
	// at different inputs share the output fairly.  A switch has at
	// most topology.SwitchPorts inputs, so a byte holds it.
	rr [arbtable.NumVLs]uint8

	// Downstream end of the link: a switch input port (downSwitch >=
	// 0) or a host (downHost >= 0); wired is false for unused ports.
	downSwitch, downPort int
	downHost             int
	wired                bool

	// Sharded parallel runs: boundary marks a link whose downstream
	// switch lives in shard downShard, different from this port's.
	// Credit checks then consult bOcc — this side's mirror of the
	// downstream per-VL occupancy, incremented at transmit and
	// decremented by batched credit returns at window barriers —
	// instead of reaching into the peer shard's memory.  The mirror
	// is conservative (it still counts packets in flight and credits
	// not yet returned), so boundary buffers cannot be overcommitted.
	// Only boundary ports have one (NewWithTopology carves them); bOcc
	// is nil everywhere else.
	boundary  bool
	downShard int32
	bOcc      *[arbtable.NumVLs]int32

	// Meter counts bytes put on the wire during the measurement
	// window (Table 2 utilization rows).
	meter stats.Meter
}

// swNode is one switch.  in and out hold one entry per port of the
// topology's radix, carved from per-network slabs (NewWithTopology).
type swNode struct {
	id  int
	in  []inPort
	out []outPort

	// xbar is the input-queued rule's crossbar scheduler state (see
	// voq.go); nil under the default output-driven WRR rule.
	xbar *crossbar

	// ix is the request index over the input buffers (see pipeline.go).
	ix reqIndex
}

// hostNode is one end node: its channel adapter has per-VL send queues
// scheduled by the host's own arbitration table, and a receive side
// that consumes at link rate (deliveries are recorded immediately).
type hostNode struct {
	id     int
	queues [arbtable.NumVLs]pktQueue
	out    outPort
}

// hasData reports whether a data lane's send queue holds a packet.
func (h *hostNode) hasData() bool {
	for vl := 0; vl < arbtable.NumDataVLs; vl++ {
		if h.queues[vl].len() > 0 {
			return true
		}
	}
	return false
}

// carve returns the next n elements of *slab, capped at n so that an
// append cannot reach the elements after them, and advances *slab past
// them.
func carve[T any](slab *[]T, n int) []T {
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// queueCap bounds a host send queue.  QoS queues are sized generously
// (admission keeps them short; overflowing one indicates a broken
// reservation and is counted as a drop), best-effort queues small.
func (n *Network) queueCap(f *Flow) int {
	if f.QoS {
		return n.Cfg.HostQueueCap
	}
	return bestEffortQueueCap
}
