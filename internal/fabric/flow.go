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
//
// A Flow holds no pointers, so the allocator places it in a span the
// collector never scans: a churn run keeps every flow it ever attached
// (Network.Flows), and each one is a 192-byte record the mark phase
// skips.  The pacing of a VBR flow lives in its Network's side table
// (Network.pacers), marked by the paced flag.
type Flow struct {
	ID       int32
	Src, Dst int32
	// Payload and Wire are the payload and payload + header bytes of
	// one packet; Config.validate keeps the payload within the IBA MTU
	// range [1,4096], so both fit 16 bits.
	Payload, Wire uint16
	SL, VL        uint8
	// Base is the VL the SLtoVL mapping assigned; VL is the injection
	// wire VL, which differs from Base only under multi-plane routing
	// engines (the source may already sit in the destination's
	// dragonfly group, so injection happens on the escape plane).
	Base    uint8
	QoS     bool
	stopped bool // generation stopped (Network.StopFlow)
	paced   bool // generation gaps come from Network.pacers, not IAT

	Mbps     float64
	IAT      int64 // nominal packet interarrival, byte times
	Deadline int64 // end-to-end guarantee in byte times; 0 = best effort

	// Measurement-window statistics: packets injected and delivered,
	// the delay distribution and source drops.  Interarrival jitter is
	// kept per service level, not per flow (Network.Jitter).
	Injected  int64
	Delivered int64
	Delay     stats.DelayCDF
	Drops     int64

	lastArrival int64 // previous delivery time within the window, -1 if none

	// Whole-run packet counters (independent of the measurement
	// window), used to detect when a stopping flow has drained.  A
	// stopping flow is drained when delPkts+lostPkts reaches genPkts:
	// lostPkts counts packets a Reroute drained with no surviving
	// route.
	genPkts, delPkts, lostPkts int64
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
		ID: int32(id), Src: int32(src), Dst: int32(dst), SL: slv, VL: vl, Base: vl,
		Mbps:        mbps,
		Payload:     uint16(payload),
		Wire:        uint16(payload + sl.HeaderBytes),
		IAT:         traffic.IATByteTimes(payload, mbps),
		Deadline:    deadline,
		QoS:         qos,
		lastArrival: -1,
	}
}

// resetMeasurement clears the per-flow statistics at the start of the
// measurement window.
func (f *Flow) resetMeasurement() {
	f.Injected, f.Delivered = 0, 0
	f.Delay.Reset()
	f.lastArrival = -1
	f.Drops = 0
}

// vbrPacer is the on/off schedule of a VBR flow (AddVBRConnection):
// burst-1 gaps of peakGap, then one offGap that restores the mean rate.
// Only the flow's source shard calls next.
type vbrPacer struct {
	peakGap, offGap int64
	burst, k        int
}

// newVBRPacer builds the schedule of f bursting at peakFactor times its
// mean rate.  It panics on a peak factor that is NaN or +Inf: the peak
// gap would truncate to a negative or zero byte time and be clamped
// without a word.
func newVBRPacer(f *Flow, peakFactor float64, burst int) *vbrPacer {
	if math.IsNaN(peakFactor) || math.IsInf(peakFactor, 1) {
		panic(fmt.Sprintf("fabric: VBR flow %d -> %d: peak factor %v is not finite", f.Src, f.Dst, peakFactor))
	}
	peakGap := max(int64(float64(f.IAT)/peakFactor), 1)
	return &vbrPacer{
		peakGap: peakGap,
		offGap:  int64(burst)*f.IAT - int64(burst-1)*peakGap,
		burst:   burst,
	}
}

// next returns the gap to the flow's next packet generation.
func (p *vbrPacer) next() int64 {
	p.k++
	if p.k%p.burst == 0 {
		return p.offGap
	}
	return p.peakGap
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
