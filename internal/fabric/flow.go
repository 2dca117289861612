// Package fabric is the event-driven InfiniBand network model of the
// evaluation: 8-port switches with per-VL input buffering, a
// multiplexed crossbar, credit-based virtual-lane flow control, and
// output-port scheduling driven by the VLArbitrationTable arbiters.
// It reproduces the simulation environment of section 4.1 of the paper
// (the authors' simulator is not available; DESIGN.md documents the
// substitution).
//
// Time is measured in byte times of the 1x data rate: transmitting a
// packet of w wire bytes occupies its link and crossbar paths for w
// byte times.
package fabric

import (
	"fmt"
	"math"

	"repro/internal/sl"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Flow is one traffic stream: either an admitted QoS connection (CBR
// at its reserved mean bandwidth, with an end-to-end deadline) or a
// best-effort background flow.
type Flow struct {
	ID       int
	Src, Dst int
	SL, VL   uint8
	// Base is the VL the SLtoVL mapping assigned; VL is the injection
	// wire VL, which differs from Base only under multi-plane routing
	// engines (the source may already sit in the destination's
	// dragonfly group, so injection happens on the escape plane).
	Base uint8
	// The flags fill the padding after the three uint8s, which keeps
	// the record in the 240-byte size class.
	QoS     bool
	stopped bool // generation stopped (Network.StopFlow)

	Mbps     float64
	Payload  int   // payload bytes per packet
	Wire     int   // payload + header bytes
	IAT      int64 // nominal packet interarrival, byte times
	Deadline int64 // end-to-end guarantee in byte times; 0 = best effort

	// Measurement-window statistics.  Interarrival jitter is kept per
	// service level, not per flow (Network.Jitter).
	Injected  stats.Meter
	Delivered stats.Meter
	Delay     stats.DelayCDF
	Drops     int64

	lastArrival int64 // previous delivery time within the window, -1 if none

	// Whole-run packet counters (independent of the measurement
	// window), used to detect when a stopping flow has drained.  A
	// stopping flow is drained when delPkts+lostPkts reaches genPkts:
	// lostPkts counts packets a Reroute drained with no surviving
	// route.
	genPkts, delPkts, lostPkts int64

	// pacing, when non-nil, returns the gap to the next packet
	// generation; nil means constant-bit-rate spacing at IAT.  Used by
	// the VBR extension.
	pacing func() int64
}

// Stopped reports whether the flow's generation is stopped
// (Network.StopFlow, ReleaseConnection).
func (f *Flow) Stopped() bool { return f.stopped }

// newFlow builds the runtime state shared by both flow kinds.  It
// panics on a rate that is not finite and positive: such a flow has no
// interarrival time, and its first generation would be scheduled in the
// past or never leave the current instant.
func newFlow(id, src, dst int, slv, vl uint8, mbps float64, payload int, deadline int64, qos bool) *Flow {
	if !(mbps > 0) || math.IsInf(mbps, 1) {
		panic(fmt.Sprintf("fabric: flow %d -> %d: rate %v Mbps is not finite and positive", src, dst, mbps))
	}
	return &Flow{
		ID: id, Src: src, Dst: dst, SL: slv, VL: vl, Base: vl,
		Mbps:        mbps,
		Payload:     payload,
		Wire:        payload + sl.HeaderBytes,
		IAT:         traffic.IATByteTimes(payload, mbps),
		Deadline:    deadline,
		QoS:         qos,
		lastArrival: -1,
	}
}

// resetMeasurement clears the per-flow statistics at the start of the
// measurement window.
func (f *Flow) resetMeasurement() {
	f.Injected = stats.Meter{}
	f.Delivered = stats.Meter{}
	f.Delay.Reset()
	f.lastArrival = -1
	f.Drops = 0
}

// Packet is one in-flight packet.  Under single-plane routing engines
// (the evaluation's irregular networks, the fat-tree) the VL is fixed
// end to end because the SLtoVL mapping is the same at every link;
// multi-plane engines rewrite VL at each forwarding decision to
// Routes.HopVL(sw, Dst, Base).
type Packet struct {
	Flow *Flow
	VL   uint8 // wire VL on the link currently carrying the packet
	Base uint8 // VL assigned by the SLtoVL mapping (plane 0)
	// out is the output port the packet leaves by at the switch whose
	// input buffer holds it (-1: no route), stamped when it arrives
	// (swNode.push) and again after a route swap (rebuildIndex).  It
	// fills padding, so a Packet stays 64 bytes.
	out  int8
	Dst  int
	Wire int

	Injected int64 // generation time at the source host

	// Tag carries upper-layer context through the fabric untouched
	// (InjectPacket's tag).  Zero for plain flow packets.
	Tag int64

	// gen counts the record's lives through the packet free-list.  An
	// in-flight arrival event snapshots it at scheduling time; if they
	// disagree at dispatch the packet was recycled and the event is
	// dropped (see events.go).
	gen uint32

	// next links the packet to the one behind it in the pktQueue that
	// holds it — the tail's links back to the head — and is nil outside
	// every queue.
	next *Packet
}
