// Package metrics provides the observability primitives of the
// simulation harness: cheap counters, gauges and histograms for the
// arbitration hot path, and a fixed-size ring buffer for arbitration
// trace events (post-mortem inspection of scheduling decisions).
//
// Everything here is designed around two constraints:
//
//   - Zero allocation and near-zero cost when disabled.  All update
//     methods are nil-safe: calling them on a nil receiver is a no-op,
//     so models hold a possibly-nil pointer and call unconditionally
//     through one predictable branch.
//   - Single-goroutine updates.  A simulation engine and everything it
//     drives run on one goroutine, so counters are plain integers, not
//     atomics.  Independent runs own independent Metrics; aggregation
//     across runs happens after the engines stop.
package metrics

import "math/bits"

// NumVLs mirrors the number of InfiniBand virtual lanes; kept local so
// this package stays a leaf dependency of the model packages.
const NumVLs = 16

// ArbCounters counts weighted round-robin arbiter activity.  All
// arbiters of one network share a single ArbCounters, so the totals
// describe the whole fabric's scheduling work.
type ArbCounters struct {
	// Picks is the number of scheduling decisions that selected a VL.
	Picks int64
	// EntriesVisited is the total number of table entries a walk from
	// the cursors examines across all passes: the high table, plus the
	// low table when the pick reads it, and both whole tables for a
	// stall.  EntriesVisited/Picks is the mean scan length, the
	// hot-path cost the fill-in algorithm's placement quality controls.
	EntriesVisited int64
	// Stalls counts arbitration passes that found nothing schedulable
	// (no eligible packet, or no credit).
	Stalls int64
}

// VLCounters meters traffic scheduled on one virtual lane.
type VLCounters struct {
	Bytes   int64
	Packets int64
}

// ControlCounters meters the hardened control plane: subnet-management
// packet loss and the recovery work of the in-band programmer and the
// table auditor.  The programmer and auditor update them directly (the
// control plane is never a hot path); all-zero counters are omitted
// from snapshots so fault-free runs keep their JSON shape.
type ControlCounters struct {
	SMPsDropped     int64 `json:"smpsDropped"`     // SMPs lost in transit (including down links)
	SMPsCorrupted   int64 `json:"smpsCorrupted"`   // SMPs with wire bytes flipped in transit
	SMPsDuplicated  int64 `json:"smpsDuplicated"`  // SMPs delivered twice
	AcksLost        int64 `json:"acksLost"`        // responses lost on the return path
	Retransmits     int64 `json:"retransmits"`     // blocks re-sent after a response timeout
	DeadlineAborts  int64 `json:"deadlineAborts"`  // transactions aborted at their wall-clock deadline
	Abandoned       int64 `json:"abandoned"`       // transactions abandoned after retransmit exhaustion
	AuditRounds     int64 `json:"auditRounds"`     // Get(VLArbitrationTable) read-back rounds started
	AuditRecoveries int64 `json:"auditRecoveries"` // ports healed (re-synced) by the audit path
	QuarantinedHops int64 `json:"quarantinedHops"` // hops quarantined as unreachable

	// Data-plane failure recovery (the failover subsystem).  All
	// omitempty: runs without topology failures keep their exact
	// snapshot shape, so pre-failover goldens stay byte-identical.
	RepairsStarted    int64 `json:"repairsStarted,omitempty"`    // route repairs begun after a detected failure
	RepairsCompleted  int64 `json:"repairsCompleted,omitempty"`  // repairs activated (CDG-proved and swapped in)
	PacketsDrained    int64 `json:"packetsDrained,omitempty"`    // packets pulled off dead elements or dead routes
	PacketsReinjected int64 `json:"packetsReinjected,omitempty"` // drained packets re-queued at their source
	PacketsLost       int64 `json:"packetsLost,omitempty"`       // drained packets with no surviving route (accounted, not silent)
	FlowsDisplaced    int64 `json:"flowsDisplaced,omitempty"`    // flows whose reserved path changed and were re-admitted or stopped
	// RepairTime observes failure-detection-to-activation latency in
	// byte times, one observation per completed repair.
	RepairTime *Hist `json:"timeToRepair,omitempty"`

	// Sharded control plane (the coordinator's serialized control
	// lane).  Both omitempty and only nonzero in true-parallel runs,
	// so single-engine snapshots keep their exact byte shape.
	//
	// CrossShardSent counts control sends (MAD blocks, audit probes)
	// whose target switch lives on a different shard than the subnet
	// manager's home shard; CrossShardDeferred counts control events
	// whose execution was serialized to a window barrier by the
	// coordinator's control lane.
	CrossShardSent     int64 `json:"crossShardSent,omitempty"`
	CrossShardDeferred int64 `json:"crossShardDeferred,omitempty"`
}

// zero reports whether no control-plane fault activity was counted.
// (RepairTime is a pointer, so struct equality keeps working: a nil
// histogram means no repair was ever timed.)
func (c *ControlCounters) zero() bool {
	return c == nil || *c == ControlCounters{}
}

// ObserveRepairTime records one completed repair's detection-to-
// activation latency, allocating the histogram on first use.
func (c *ControlCounters) ObserveRepairTime(bt int64) {
	if c == nil {
		return
	}
	if c.RepairTime == nil {
		c.RepairTime = &Hist{}
	}
	c.RepairTime.observe(bt)
}

// add accumulates o into c.
func (c *ControlCounters) add(o ControlCounters) {
	c.SMPsDropped += o.SMPsDropped
	c.SMPsCorrupted += o.SMPsCorrupted
	c.SMPsDuplicated += o.SMPsDuplicated
	c.AcksLost += o.AcksLost
	c.Retransmits += o.Retransmits
	c.DeadlineAborts += o.DeadlineAborts
	c.Abandoned += o.Abandoned
	c.AuditRounds += o.AuditRounds
	c.AuditRecoveries += o.AuditRecoveries
	c.QuarantinedHops += o.QuarantinedHops
	c.RepairsStarted += o.RepairsStarted
	c.RepairsCompleted += o.RepairsCompleted
	c.PacketsDrained += o.PacketsDrained
	c.PacketsReinjected += o.PacketsReinjected
	c.PacketsLost += o.PacketsLost
	c.FlowsDisplaced += o.FlowsDisplaced
	c.CrossShardSent += o.CrossShardSent
	c.CrossShardDeferred += o.CrossShardDeferred
	if o.RepairTime != nil {
		if c.RepairTime == nil {
			c.RepairTime = &Hist{}
		}
		c.RepairTime.add(o.RepairTime)
	}
}

// VOQCounters meters the input-queued switch models (VOQ crossbars
// scheduled by iSLIP or the maximum-weight-matching oracle).  A pass
// is one crossbar scheduling round at one switch that saw at least one
// backlogged input; Matched sums the matching sizes over all passes;
// HOLStalls counts inputs that held at least one packet eligible for a
// free output yet ended the pass unmatched — the head-of-line blocking
// signal the -exp hol experiment audits.
type VOQCounters struct {
	SchedPasses int64 `json:"schedPasses"`
	Matched     int64 `json:"matched"`
	HOLStalls   int64 `json:"holStalls"`
}

// zero reports whether no VOQ scheduling activity was counted.
func (c *VOQCounters) zero() bool {
	return c == nil || *c == VOQCounters{}
}

// add accumulates o into c.
func (c *VOQCounters) add(o VOQCounters) {
	c.SchedPasses += o.SchedPasses
	c.Matched += o.Matched
	c.HOLStalls += o.HOLStalls
}

// EngineCounters meters the typed-event core of one simulation engine:
// how much work went through the queue, how deep it got, which levels
// of the timing wheel held it, and how well the event-record pool
// recycled.  The engine maintains them itself; sim.Engine.Stats exports
// a copy.  Placed and Cascaded have one entry per wheel level: level 0
// is the ring of one-byte-time buckets, level k > 0 the k-th coarse
// level.
type EngineCounters struct {
	Scheduled    int64     `json:"scheduled"`    // events posted (typed + closure)
	Executed     int64     `json:"executed"`     // events executed (incl. deferred)
	Canceled     int64     `json:"canceled"`     // timers canceled before firing
	MaxHeapDepth int64     `json:"maxHeapDepth"` // high-water pending-event count
	MaxDeferred  int64     `json:"maxDeferred"`  // high-water same-instant queue
	PoolReuse    int64     `json:"poolReuse"`    // event records recycled from the free-list
	PoolGrow     int64     `json:"poolGrow"`     // event records newly allocated
	Placed       [12]int64 `json:"placed"`       // events a Post put in each level
	Cascaded     [12]int64 `json:"cascaded"`     // events a cascade moved out of each level
}

// Hist is a power-of-two-bucket histogram for small non-negative
// integer observations (queue depths, scan lengths).  Bucket 0 counts
// zeros; bucket i counts values v with 2^(i-1) <= v < 2^i; the last
// bucket is an open tail.  Fixed-size, so observing allocates nothing.
type Hist struct {
	Counts [16]int64 `json:"counts"`
	N      int64     `json:"n"`
	Sum    int64     `json:"sum"`
	Max    int64     `json:"max"`
}

// observe records one value.  Negative values clamp to zero.
func (h *Hist) observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	h.Counts[b]++
	h.N++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// add accumulates o into h bucket-wise: counts, totals and N add, the
// maxima take the maximum.  Integer-only, so merging per-shard
// histograms loses nothing.
func (h *Hist) add(o *Hist) {
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	h.N += o.N
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
}

// mean returns the mean observation (0 when empty).
func (h *Hist) mean() float64 {
	if h == nil || h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// Metrics is the counter set of one simulated network.  The zero value
// is ready to use; a nil *Metrics disables every update at one branch
// of cost.
type Metrics struct {
	Arb ArbCounters
	VL  [NumVLs]VLCounters

	// Control meters control-plane fault handling (SMP loss,
	// retransmission, deadline aborts, quarantines).  A reliability-
	// aware programmer is pointed at it; fault-free runs leave it zero
	// and it stays out of snapshots.
	Control ControlCounters

	// QueueDepth observes the source queue depth at every arbitration
	// pick (packets waiting behind the one scheduled).
	QueueDepth Hist

	// VOQ meters the input-queued switch models; output-queued WRR
	// fabrics leave it zero and it stays out of snapshots.  MatchSize
	// observes the matching cardinality of every scheduling pass and
	// VOQDepth the residual depth of a virtual output queue at every
	// dequeue.
	VOQ       VOQCounters
	MatchSize Hist
	VOQDepth  Hist

	// DeadlineMisses counts measured QoS packets delivered after their
	// end-to-end deadline.  Deliveries counts all measured deliveries,
	// giving the miss rate a denominator.
	DeadlineMisses int64
	Deliveries     int64
}

// New returns an empty, enabled Metrics.
func New() *Metrics { return &Metrics{} }

// AddVLBytes meters one packet scheduled on vl.  No-op on nil.
func (m *Metrics) AddVLBytes(vl int, bytes int) {
	if m == nil || vl < 0 || vl >= NumVLs {
		return
	}
	m.VL[vl].Bytes += int64(bytes)
	m.VL[vl].Packets++
}

// ObserveQueueDepth records a source queue depth at pick time.
func (m *Metrics) ObserveQueueDepth(depth int64) {
	if m == nil {
		return
	}
	m.QueueDepth.observe(depth)
}

// CountVOQPass records one crossbar scheduling pass of an input-queued
// switch: the matching size and the number of backlogged inputs that
// competed for it (backlogged - size inputs stalled on head-of-line
// contention).
func (m *Metrics) CountVOQPass(size, backlogged int) {
	if m == nil {
		return
	}
	m.VOQ.SchedPasses++
	m.VOQ.Matched += int64(size)
	m.VOQ.HOLStalls += int64(backlogged - size)
	m.MatchSize.observe(int64(size))
}

// ObserveVOQDepth records the residual depth of a virtual output queue
// right after a matched dequeue.
func (m *Metrics) ObserveVOQDepth(depth int64) {
	if m == nil {
		return
	}
	m.VOQDepth.observe(depth)
}

// CountDelivery records a measured delivery and whether it missed its
// deadline.
func (m *Metrics) CountDelivery(missed bool) {
	if m == nil {
		return
	}
	m.Deliveries++
	if missed {
		m.DeadlineMisses++
	}
}

// Merge accumulates src into m.  Every counter is an integer (sums
// add, high-water marks take the maximum), so merging the per-shard
// counter sets of a sharded run is exact: the merged Metrics is
// indistinguishable from one that observed every event itself.
func (m *Metrics) Merge(src *Metrics) {
	if m == nil || src == nil {
		return
	}
	m.Arb.Picks += src.Arb.Picks
	m.Arb.EntriesVisited += src.Arb.EntriesVisited
	m.Arb.Stalls += src.Arb.Stalls
	for vl := range m.VL {
		m.VL[vl].Bytes += src.VL[vl].Bytes
		m.VL[vl].Packets += src.VL[vl].Packets
	}
	m.Control.add(src.Control)
	m.QueueDepth.add(&src.QueueDepth)
	m.VOQ.add(src.VOQ)
	m.MatchSize.add(&src.MatchSize)
	m.VOQDepth.add(&src.VOQDepth)
	m.DeadlineMisses += src.DeadlineMisses
	m.Deliveries += src.Deliveries
}

// VLSnapshot is the exported form of one lane's traffic counters.
type VLSnapshot struct {
	VL      int   `json:"vl"`
	Bytes   int64 `json:"bytes"`
	Packets int64 `json:"packets"`
}

// HistSnapshot is the exported form of a histogram.
type HistSnapshot struct {
	Counts []int64 `json:"counts"`
	N      int64   `json:"n"`
	Mean   float64 `json:"mean"`
	Max    int64   `json:"max"`
}

// Snapshot is a self-describing, JSON-friendly copy of a Metrics,
// with the derived ratios the counters exist to answer.
type Snapshot struct {
	Picks              int64   `json:"picks"`
	EntriesVisited     int64   `json:"entriesVisited"`
	MeanEntriesPerPick float64 `json:"meanEntriesPerPick"`
	Stalls             int64   `json:"stalls"`

	PerVL []VLSnapshot `json:"perVL"` // lanes with traffic only

	QueueDepth HistSnapshot `json:"queueDepth"`

	Deliveries     int64   `json:"deliveries"`
	DeadlineMisses int64   `json:"deadlineMisses"`
	MissPercent    float64 `json:"missPercent"`

	// Control is present only when control-plane fault handling did
	// any work, so fault-free snapshots keep their exact JSON shape.
	Control *ControlCounters `json:"control,omitempty"`

	// VOQ is present only when an input-queued switch model ran, so
	// classic WRR snapshots keep their exact JSON shape.
	VOQ *VOQSnapshot `json:"voq,omitempty"`
}

// VOQSnapshot is the exported form of the input-queued switch
// counters: the per-pass matching statistics plus the HOL-blocking and
// queue-depth signals the hol experiment reads.
type VOQSnapshot struct {
	SchedPasses   int64        `json:"schedPasses"`
	Matched       int64        `json:"matched"`
	MeanMatchSize float64      `json:"meanMatchSize"`
	HOLStalls     int64        `json:"holStalls"`
	MatchSize     HistSnapshot `json:"matchSize"`
	VOQDepth      HistSnapshot `json:"voqDepth"`
}

// Snapshot exports the counters.  Safe on nil (returns the zero
// snapshot).
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Picks:          m.Arb.Picks,
		EntriesVisited: m.Arb.EntriesVisited,
		Stalls:         m.Arb.Stalls,
		Deliveries:     m.Deliveries,
		DeadlineMisses: m.DeadlineMisses,
		QueueDepth: HistSnapshot{
			Counts: trimTail(m.QueueDepth.Counts[:]),
			N:      m.QueueDepth.N,
			Mean:   m.QueueDepth.mean(),
			Max:    m.QueueDepth.Max,
		},
	}
	if s.Picks > 0 {
		s.MeanEntriesPerPick = float64(s.EntriesVisited) / float64(s.Picks)
	}
	if s.Deliveries > 0 {
		s.MissPercent = 100 * float64(s.DeadlineMisses) / float64(s.Deliveries)
	}
	if !m.Control.zero() {
		ctl := m.Control
		s.Control = &ctl
	}
	if !m.VOQ.zero() {
		v := &VOQSnapshot{
			SchedPasses: m.VOQ.SchedPasses,
			Matched:     m.VOQ.Matched,
			HOLStalls:   m.VOQ.HOLStalls,
			MatchSize: HistSnapshot{
				Counts: trimTail(m.MatchSize.Counts[:]),
				N:      m.MatchSize.N,
				Mean:   m.MatchSize.mean(),
				Max:    m.MatchSize.Max,
			},
			VOQDepth: HistSnapshot{
				Counts: trimTail(m.VOQDepth.Counts[:]),
				N:      m.VOQDepth.N,
				Mean:   m.VOQDepth.mean(),
				Max:    m.VOQDepth.Max,
			},
		}
		if v.SchedPasses > 0 {
			v.MeanMatchSize = float64(v.Matched) / float64(v.SchedPasses)
		}
		s.VOQ = v
	}
	for vl, c := range m.VL {
		if c.Packets == 0 {
			continue
		}
		s.PerVL = append(s.PerVL, VLSnapshot{VL: vl, Bytes: c.Bytes, Packets: c.Packets})
	}
	return s
}

// trimTail copies counts up to the last non-zero bucket, so snapshots
// of lightly loaded runs stay compact.
func trimTail(counts []int64) []int64 {
	last := 0
	for i, c := range counts {
		if c != 0 {
			last = i + 1
		}
	}
	return append([]int64(nil), counts[:last]...)
}
