package fabric

import (
	"math/bits"

	"repro/internal/arbtable"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// This file is the sharded half of the simulation core (DESIGN.md §12).
// A network is split by topology.PartitionFabric into topology-local
// shards, each owning every mutable hot-path resource of its switches
// and hosts: an event engine, a packet free-list, conservation counters
// and (in parallel mode) a metrics set.  The shards advance together in
// conservative-lookahead windows under sim.Coordinator; what crosses a
// shard boundary — packet arrivals (the sender's outbox), credit state
// (the sender's conservative mirror, outPort.bOcc) and credit returns
// (the receiver's batch) — is batched and exchanged at the window
// barrier (flushBoundary).  Single-shard runs are byte-identical to the
// unsharded engine; parallel runs are deterministic for a fixed shard
// count, but exchange credits at barrier granularity, so their timing
// differs from the unsharded schedule by design.

// boundaryEvent is one cross-shard packet arrival, buffered in the
// sending shard's outbox until the next window barrier.
type boundaryEvent struct {
	shard int32 // destination shard
	at    int64
	ev    sim.Event
}

// creditReturn is one batch-applied credit: wire bytes freed from a
// boundary input buffer, owed to the upstream out port's mirror.
type creditReturn struct {
	code int32 // upstream out-port code (always a switch port)
	vl   uint8
	wire int32
}

// shard owns the mutable simulation state of one topology partition.
// Every hot-path handler runs with a shard receiver: events touch only
// the receiving shard's switches, hosts, packet pool and counters
// (plus the source/destination halves of flow statistics, which are
// written by exactly one side), so shards of a parallel window share
// nothing but immutable configuration.
type shard struct {
	n   *Network
	eng *sim.Engine

	// Per-shard packet free-list (see events.go).
	pktFree       []*Packet
	staleArrivals int64

	// Whole-run conservation counters: injections and drops are
	// counted by the source host's shard, deliveries by the
	// destination's; Network.Totals sums the shards.
	totalInjected  int64
	totalDelivered int64
	totalDropped   int64
	// totalLost counts packets failure recovery drained with no
	// surviving route (charged to the shard that consumed them).
	totalLost int64

	// Measurement-window byte totals, split the same way.
	injectedBytes  int64
	deliveredBytes int64

	// jitter holds the measurement window's interarrival deviations of
	// the flows this shard delivers, one histogram per service level;
	// Network.Jitter merges the shards.
	jitter [numSLs]stats.JitterHist

	// Boundary batches, drained by Network.flushBoundary at barriers.
	outbox  []boundaryEvent
	credits []creditReturn

	// metrics is where this shard's hot path counts: the shared
	// Network.Metrics in single-engine runs, a private set merged at
	// run end in parallel mode.  Nil until EnableMetrics.
	metrics *metrics.Metrics

	// mwm is the MWM solver scratch of this shard's input-queued
	// switches (nil unless the oracle model is selected).
	mwm *mwmScratch

	// dirty is the set of this shard's scheduling points a kick marked
	// during the current instant (see endInstant).
	dirty dirtySet

	// voqIdlePasses counts the crossbar passes that served nothing, and
	// inputWakes the evInputFree wake-ups executed (armInputFree).
	voqIdlePasses int64
	inputWakes    int64
}

// dirtySet is a two-level bitmap over scheduling points: bit k of
// words[w] marks point 64·w+k, and bit w of sum[w/64] says words[w] is
// not zero.  A switch output port is its port code (switchCode; under
// the input-queued rule the switch is its port 0), and host h follows
// every switch code, at hostBase+h, so ascending order is (node, port)
// order.
type dirtySet struct {
	sum, words []uint64
	hostBase   int
}

func newDirtySet(switches, hosts int) dirtySet {
	base := switches * topology.SwitchPorts
	words := (base + hosts + 63) / 64
	return dirtySet{sum: make([]uint64, (words+63)/64), words: make([]uint64, words), hostBase: base}
}

func (d *dirtySet) add(k int) {
	d.words[k>>6] |= 1 << (k & 63)
	d.sum[k>>12] |= 1 << (k >> 6 & 63)
}

// has reports whether point k is marked.
func (d *dirtySet) has(k int) bool { return d.words[k>>6]&(1<<(k&63)) != 0 }

// markDirty marks scheduling point k for a pass at the end of the
// current instant.
func (sh *shard) markDirty(k int) {
	sh.dirty.add(k)
	sh.eng.MarkInstant()
}

// endInstant is the shard engine's end-of-instant phase: one scheduling
// pass at every point a kick marked during the instant, in ascending
// (node, port) order, after every event of the instant has run.  What
// a pass sees therefore does not depend on the order of the instant's
// events, and a port or switch passes at most once per byte-time.
// Everything a pass schedules lands at the next byte-time or later, and
// a pass kicks nothing.  It returns the passes run, which the engine
// counts as executed work.
func (sh *shard) endInstant() int {
	n, d := sh.n, &sh.dirty
	passes := 0
	for si := range d.sum {
		for sum := d.sum[si]; sum != 0; sum &= sum - 1 {
			wi := si<<6 | bits.TrailingZeros64(sum)
			for w := d.words[wi]; w != 0; w &= w - 1 {
				// The mark goes as its pass starts: the marks left are the
				// passes still to come this instant (see take).
				d.words[wi] &^= w & -w
				k := wi<<6 | bits.TrailingZeros64(w)
				if k >= d.hostBase {
					sh.tryHost(k - d.hostBase)
				} else {
					s, p := switchPort(int32(k))
					n.rule.pass(sh, s, p)
				}
				passes++
			}
		}
		d.sum[si] = 0
	}
	return passes
}

// numSLs is the number of InfiniBand service levels.
const numSLs = 16

// Jitter returns the measurement window's interarrival jitter of every
// flow on the given service levels, merged over the shards.
func (n *Network) Jitter(sls ...uint8) stats.JitterHist {
	var j stats.JitterHist
	for _, sh := range n.shards {
		for _, slv := range sls {
			j.Merge(&sh.jitter[slv])
		}
	}
	return j
}

// shardForHost returns the shard owning a host.
func (n *Network) shardForHost(h int) *shard { return n.shards[n.part.ShardOfHost(h)] }

// shardForSwitch returns the shard owning a switch.
func (n *Network) shardForSwitch(s int) *shard { return n.shards[n.part.ShardOfSwitch(s)] }

// Parallel reports whether the fabric runs several shards
// concurrently under the conservative-lookahead coordinator (as
// opposed to one shard on one engine).
func (n *Network) Parallel() bool { return len(n.shards) > 1 }

// occView returns the per-VL occupancy array that credit checks for
// out's downstream buffer must consult: the receiver's real occupancy
// for intra-shard links, the sender-side mirror for boundary links,
// nil when the downstream is a host (hosts consume at link rate).
func (n *Network) occView(out *outPort) *[arbtable.NumVLs]int32 {
	if out.downSwitch < 0 {
		return nil
	}
	if out.boundary {
		return out.bOcc
	}
	return &n.switches[out.downSwitch].in[out.downPort].occ
}

// flushBoundary exchanges the boundary batches at a window barrier,
// while every engine is quiescent.  Outboxes post in shard order and
// append order, so the merged (time, seq) order in each receiving
// engine is a pure function of the simulation state — parallel runs
// are reproducible for a fixed shard count.
func (n *Network) flushBoundary() {
	for _, sh := range n.shards {
		for k := range sh.outbox {
			be := &sh.outbox[k]
			dst := n.shards[be.shard]
			dst.eng.Post(be.at, dst, be.ev)
			sh.outbox[k].ev.P = nil
		}
		sh.outbox = sh.outbox[:0]
	}
	for _, sh := range n.shards {
		for _, cr := range sh.credits {
			out := n.outPortByCode(cr.code)
			out.bOcc[cr.vl] -= cr.wire
			s, p := switchPort(cr.code)
			n.shardForSwitch(s).creditSwitch(s, p)
		}
		sh.credits = sh.credits[:0]
	}
}

// lookaheadBound computes the synchronization window width: link
// latency plus the smallest packet wire time any attached flow can put
// on a boundary link (Network.attach maintains the minimum, including
// for flows attached mid-run at barriers).  With no flows yet the
// bound degenerates to LinkLatency+1 — conservative, since every real
// packet crossing takes at least its wire time on top of the latency.
func (n *Network) lookaheadBound() int64 {
	minWire := int64(n.minWire)
	if minWire == 0 {
		minWire = 1
	}
	return LinkLatency + minWire
}

// coordinator returns the window coordinator, building it on first
// use and refreshing its lookahead.
func (n *Network) coordinator() *sim.Coordinator {
	if n.coord == nil {
		engines := make([]*sim.Engine, len(n.shards))
		for i, sh := range n.shards {
			engines[i] = sh.eng
		}
		n.coord = &sim.Coordinator{Engines: engines, Control: n.Ctrl, Flush: n.flushBoundary}
	}
	n.coord.Lookahead = n.lookaheadBound()
	return n.coord
}

// Run advances the fabric to the given time: directly on the engine
// for single-engine runs, in conservative-lookahead windows across
// the shard engines in parallel mode.  Callers drive a network through
// Run/RunWhile/Now instead of Network.Engine so the same experiment
// code works at any shard count.
func (n *Network) Run(until int64) {
	if !n.Parallel() {
		n.Engine.Run(until)
		return
	}
	n.coordinator().Run(until)
	n.syncMetrics()
}

// RunWhile advances the fabric while cond() holds.  In parallel mode
// the condition is evaluated at window barriers (the only points where
// cross-shard state is consistent), so the run can overshoot by up to
// one lookahead window.
func (n *Network) RunWhile(cond func() bool) {
	if !n.Parallel() {
		n.Engine.RunWhile(cond)
		return
	}
	n.coordinator().RunWhile(cond)
	n.syncMetrics()
}

// Now returns the fabric clock.  All shard engines agree at barriers;
// between runs this is the time every shard stopped at.
func (n *Network) Now() int64 { return n.Engine.Now() }

// Windows returns the number of synchronization windows executed so
// far (0 in single-engine runs).
func (n *Network) Windows() uint64 {
	if n.coord == nil {
		return 0
	}
	return n.coord.Windows
}

// ExecutedEvents sums the executed-event counts of every shard engine
// — plus the control lane's in parallel mode, where it is a separate
// engine — (the throughput numerator of the sharding benchmark).
func (n *Network) ExecutedEvents() uint64 {
	var total uint64
	for _, sh := range n.shards {
		total += sh.eng.Executed()
	}
	if n.Parallel() {
		total += n.Ctrl.Executed()
	}
	return total
}

// voqIdlePasses returns the number of crossbar passes that served
// nothing (0 under the WRR model).
func (n *Network) voqIdlePasses() int64 {
	var total int64
	for _, sh := range n.shards {
		total += sh.voqIdlePasses
	}
	return total
}

// SyncCounters reports the coordinator's synchronization work:
// barrier passes, control turns (barriers that executed control
// events) and control events serialized to barriers.  All zero in
// single-engine runs.
func (n *Network) SyncCounters() (barriers, controlTurns, controlEvents uint64) {
	if n.coord == nil {
		return 0, 0, 0
	}
	return n.coord.Barriers, n.coord.ControlTurns, n.coord.ControlEvents
}

// VLBytes returns the bytes arbitrated on one VL so far.  In parallel
// mode it sums the live per-shard counters — the merged Metrics set is
// rebuilt only after a Run, so a mid-run sampler on the control lane
// would otherwise read stale values.  Requires EnableMetrics.
func (n *Network) VLBytes(vl int) int64 {
	if !n.Parallel() {
		return n.Metrics.VL[vl].Bytes
	}
	var b int64
	for _, sh := range n.shards {
		if sh.metrics != nil {
			b += sh.metrics.VL[vl].Bytes
		}
	}
	return b
}

// syncMetrics rebuilds the merged Network.Metrics from the per-shard
// sets and the control lane's set after a parallel run.  Counters are
// integers, so the merge is exact.
func (n *Network) syncMetrics() {
	if n.Metrics == nil {
		return
	}
	*n.Metrics = metrics.Metrics{}
	for _, sh := range n.shards {
		n.Metrics.Merge(sh.metrics)
	}
	if n.ctrlMetrics != nil {
		if n.coord != nil {
			n.ctrlMetrics.Control.CrossShardDeferred = int64(n.coord.ControlEvents)
		}
		n.Metrics.Merge(n.ctrlMetrics)
	}
}
