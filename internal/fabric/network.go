package fabric

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Config parameterizes a simulated network.
type Config struct {
	Switches     int   // number of switches
	Seed         int64 // topology wiring and traffic phases
	PayloadBytes int   // MTU payload per packet (paper: small=256, large=2048)
	Limit        uint8 // LimitOfHighPriority for every port

	// HostQueueCap is the per-VL host send-queue bound for QoS flows,
	// in packets.  It stays a field because a test that blocks a host
	// raises it (TestFaultWindowPostsOneWakeup queues for a whole fault
	// window and pins the byte-times that depth produces).
	HostQueueCap int

	// DataVLs restricts the number of data virtual lanes the fabric
	// implements.  Zero (or 15) keeps the identity SLtoVL mapping of
	// the evaluation; smaller values collapse service levels onto
	// shared lanes via sl.CollapsedMapping, tightening the shared
	// groups to their most restrictive distance.
	DataVLs int

	// CrossbarSpeedup is the internal speedup of the multiplexed
	// crossbar: an input port finishes its transfer to the crossbar in
	// wire/CrossbarSpeedup byte times, while the output link still
	// needs the full wire time.  Speedup 2 is the standard remedy for
	// the opportunity loss an output arbiter suffers when the input
	// holding its scheduled VL is still busy with another transfer.
	CrossbarSpeedup int

	// SwitchModel selects the simulated switch hardware: the paper's
	// output-driven WRR model (the zero value), or the input-queued
	// VOQ model scheduled by iSLIP or by the exact maximum-weight-
	// matching oracle (see voq.go).  Hosts are unaffected.
	SwitchModel SwitchModel

	// ISLIPIters is the request-grant-accept iteration count of the
	// iSLIP crossbar scheduler; zero selects DefaultISLIPIters.
	// Ignored by the other models.
	ISLIPIters int

	// Shards splits the fabric into that many topology-local
	// partitions (pods, dragonfly groups, or BFS-carved subtrees; see
	// topology.PartitionFabric), each owning its own engine, packet
	// pool and counters, synchronized in conservative-lookahead
	// windows.  0 and 1 select the classic single-engine simulation;
	// a count above the switch count is refused.
	Shards int

	// FailoverEscape seeds every data VL with a weight-1 low-priority
	// table entry (in addition to the best-effort weights above).  A
	// failure recovery that releases a displaced connection's
	// reservations could otherwise strand its already-queued packets on
	// a lane no table entry serves; the escape weight keeps every lane
	// draining.  Off (the default) leaves the tables exactly as before,
	// so existing goldens are unaffected.  Failure recovery requires it
	// (subnet.Manager.EnableRecovery, Reroute).
	FailoverEscape bool
}

// Fabric parameters no configuration varies (the paper's section 4.1
// gives the buffer depth).
const (
	// bufferPackets is the input buffer per VL, in whole packets.
	bufferPackets = 4
	// LinkLatency is the wire plus forwarding latency of one hop, in
	// byte times.
	LinkLatency int64 = 20
	// bestEffortQueueCap is the per-VL host send-queue bound for
	// best-effort flows, in packets.
	bestEffortQueueCap = 8
	// The low-priority table weights of the best-effort service levels
	// PBE, BE and CH.
	lowWeightPBE, lowWeightBE, lowWeightCH = 8, 4, 1
)

// DefaultConfig returns the evaluation configuration of the paper's
// section 4.1 for the given packet payload.
func DefaultConfig(switches int, payload int, seed int64) Config {
	return Config{
		Switches:        switches,
		Seed:            seed,
		PayloadBytes:    payload,
		Limit:           arbtable.UnlimitedHigh,
		HostQueueCap:    512,
		CrossbarSpeedup: 2,
	}
}

// Network is a complete simulated fabric: topology, routing,
// arbitration state shared with admission control, switches, hosts and
// traffic flows, all driven by one event engine.
type Network struct {
	Cfg     Config
	Topo    *topology.Topology
	Routes  *routing.Routes
	Mapping sl.Mapping
	Engine  *sim.Engine
	// Ctrl is the engine control-plane work runs on: MAD block flights
	// and acks, retransmit timers, audit probes, admission transactions
	// and connection-release polls.  In single-engine runs it aliases
	// Engine, so control events interleave with data events exactly as
	// they always did; in parallel mode it is the coordinator's
	// serialized control lane (see sim.Coordinator), executed only at
	// window barriers where every shard is quiescent.  Data-plane
	// events must never schedule onto it.
	Ctrl *sim.Engine
	Adm  *admission.Controller

	switches []*swNode
	hosts    []*hostNode
	flows    []*Flow
	// pacers holds the generation schedule of each paced (VBR) flow,
	// keyed by flow ID.  It is written only when a flow attaches, so
	// the shards read it concurrently; each pacer is advanced only by
	// its flow's source shard.
	pacers map[int32]*vbrPacer
	rng    *rand.Rand

	measuring    bool
	measureStart int64
	genStopped   bool

	// Sharded core (see shard.go): the partition, one shard per part
	// owning its engine, packet pool and counters, and — in parallel
	// mode only — the window coordinator.  Single-engine runs have one
	// shard.
	part   *topology.Partition
	shards []*shard
	coord  *sim.Coordinator

	// minWire is the smallest packet wire time over all flows ever
	// attached (0 until the first one); the coordinator lookahead is
	// LinkLatency+minWire, updated when a flow attaches mid-run.
	minWire int

	// ctrlMetrics is the control lane's private counter set in
	// parallel mode (syncMetrics rebuilds the merged Network.Metrics
	// from the per-shard sets, which would wipe counters written there
	// directly); nil in single-engine runs, where the control plane
	// writes straight into Network.Metrics.
	ctrlMetrics *metrics.Metrics

	poolDisabled bool

	// planes caches Routes.Planes(); a value above 1 routes each hop's
	// wire VL through Routes.HopVL (the dragonfly's escape planes)
	// instead of keeping the injection VL end to end.
	planes int

	// traceStride caches Topo.Ports() for switchTraceID.
	traceStride int

	// rule is the switch model's rule over the shared pipeline (see
	// pipeline.go), chosen once by NewWithTopology.  islipIters is the
	// iSLIP depth of the input-queued models; the MWM solver scratch
	// lives on the shards.
	rule       switchRule
	islipIters int

	// OnDeliver, when set, observes every packet reaching its
	// destination host (after the flow statistics update); the
	// delivery-digest tests hook here.
	OnDeliver func(*Packet)

	// OnForward, when set, observes every switch forwarding decision:
	// the packet (with its outgoing wire VL already set), the switch,
	// and the chosen output port.  Costs the hot path one nil check;
	// the routing cross-check tests hook here.
	OnForward func(pkt *Packet, sw, port int)

	// onMatch, when set, observes every crossbar scheduling pass at an
	// input-queued switch: the switch, the matching (match[j] = the
	// input feeding output j, -1 idle) and its size.  The matching
	// array is scratch owned by the caller — copy it, don't keep it.
	onMatch func(sw int, match *[topology.SwitchPorts]int8, size int)

	// onDequeue, when set, observes every data-VL dequeue at a switch
	// (switch, input port, output port, buffered VL) right before the
	// packet crosses the crossbar.  The oracle-driven tests pair it
	// with onMatch to prove forwards ⊆ matchings.
	onDequeue func(sw, in, out, vl int)

	// Metrics, when non-nil, receives fabric-wide observability
	// counters (per-VL bytes arbitrated, scan lengths, stalls, queue
	// depths, deadline misses).  Attach with EnableMetrics before
	// Start; nil keeps the hot path free of metered work beyond one
	// branch per site.
	Metrics *metrics.Metrics

	// Faults, when non-nil, is consulted once per scheduling pass: a
	// port inside one of the injector's down or stall windows schedules
	// nothing until the window ends.  Nil (the default) costs the hot
	// path a single predictable branch, like Metrics.
	Faults *faults.Injector

	// crashed and hostDead are the dead elements of the last Reroute
	// (see failover.go), by switch and by host.  Both stay nil until
	// the first, so the hot paths consult them with one predictable nil
	// check, like Metrics and Faults.
	crashed, hostDead []bool
}

// SetFaults attaches a fault injector to the data plane's scheduling
// passes (share it with the control plane's programmer so both sides
// see the same link schedule).
func (n *Network) SetFaults(in *faults.Injector) { n.Faults = in }

// EnableMetrics attaches a counter set to the network and its
// arbiters, returning it.  Idempotent; call before Start.  In a
// parallel sharded run every shard counts into a private set and the
// returned Metrics is the merged view, rebuilt after every Run /
// RunWhile; the merge is exact (integer counters only).
func (n *Network) EnableMetrics() *metrics.Metrics {
	if n.Metrics == nil {
		n.Metrics = metrics.New()
		for _, sh := range n.shards {
			if n.Parallel() {
				sh.metrics = metrics.New()
			} else {
				sh.metrics = n.Metrics
			}
		}
		if n.Parallel() {
			n.ctrlMetrics = metrics.New()
		}
		for h, node := range n.hosts {
			node.out.arb.SetMetrics(&n.shardForHost(h).metrics.Arb)
		}
		for s, node := range n.switches {
			for p := range node.out {
				if arb := node.out[p].arb; arb != nil {
					arb.SetMetrics(&n.shardForSwitch(s).metrics.Arb)
				}
			}
		}
	}
	return n.Metrics
}

// EnableTrace attaches a ring buffer holding the last events
// arbitration decisions to the engine, returning it.  Each pick
// records (time, port, VL, entry, weight-left); a port is -(h+1) for
// host h's interface and s*radix+p for port p of switch s (hostTraceID,
// switchTraceID).
func (n *Network) EnableTrace(events int) *metrics.TraceBuffer {
	if n.Engine.Trace == nil {
		n.Engine.Trace = metrics.NewTraceBuffer(events)
	}
	return n.Engine.Trace
}

// hostTraceID encodes host h's output interface for trace events.
func hostTraceID(h int) int32 { return int32(-(h + 1)) }

// switchTraceID encodes switch s's output port p for trace events.
// The stride is the topology's radix, not the port code's SwitchPorts
// stride, so 8-port fabrics keep the trace numbering they always had.
func (n *Network) switchTraceID(s, p int) int32 { return int32(s*n.traceStride + p) }

// validate checks a configuration for values that would corrupt the
// simulation (zero payload, non-positive speedup, ...).
func (cfg Config) validate() error {
	switch {
	case cfg.Switches < 2:
		return fmt.Errorf("fabric: need at least 2 switches, got %d", cfg.Switches)
	case cfg.PayloadBytes < 1 || cfg.PayloadBytes > 4096:
		return fmt.Errorf("fabric: payload %d outside IBA MTU range [1,4096]", cfg.PayloadBytes)
	case cfg.CrossbarSpeedup < 1:
		return fmt.Errorf("fabric: crossbar speedup %d", cfg.CrossbarSpeedup)
	case cfg.HostQueueCap < 1:
		return fmt.Errorf("fabric: host queue cap %d", cfg.HostQueueCap)
	case cfg.DataVLs != 0 && (cfg.DataVLs < 3 || cfg.DataVLs > 15):
		return fmt.Errorf("fabric: DataVLs %d outside [3,15]", cfg.DataVLs)
	case cfg.SwitchModel < ModelWRR || cfg.SwitchModel > ModelVOQMWM:
		return fmt.Errorf("fabric: unknown switch model %d", int(cfg.SwitchModel))
	case cfg.ISLIPIters < 0:
		return fmt.Errorf("fabric: negative iSLIP iteration count %d", cfg.ISLIPIters)
	case cfg.Shards < 0:
		return fmt.Errorf("fabric: negative shard count %d", cfg.Shards)
	}
	return nil
}

// eventPoolSize is the event population an engine serving the given
// part of a fabric is preallocated for: one generator per eventual
// flow plus a few events per switch port in use (transmit completion,
// arrival, crossbar release, scheduling pass).  A loaded run on the
// fat-tree and dragonfly shapes stays within it (the high-water mark
// under saturating load is 10-12 events per host at 4-5 ports per
// host); the host-dense irregular shapes can exceed it by a tenth and
// regrow the pool once.
func eventPoolSize(hosts, switches, ports int) int {
	return 64 + 4*hosts + 2*switches*ports
}

// NewWithTopology builds a network over topo: computes routes, creates
// the arbitration tables (seeding the low-priority tables for
// best-effort VLs) and wires switch and host models together.
// cfg.Switches must match the topology.
func NewWithTopology(cfg Config, topo *topology.Topology) (*Network, error) {
	cs, err := BuildControl(cfg, topo)
	if err != nil {
		return nil, err
	}
	routes, mapping, ports := cs.Routes, cs.Mapping, cs.Ports

	shardCount := cfg.Shards
	if shardCount < 1 {
		shardCount = 1
	}
	part, err := topology.PartitionFabric(topo, shardCount)
	if err != nil {
		return nil, err
	}
	eng := &sim.Engine{}

	n := &Network{
		Cfg:     cfg,
		Topo:    topo,
		Routes:  routes,
		Mapping: mapping,
		Engine:  eng,
		Adm:     cs.Adm,
		rng:     rand.New(rand.NewSource(cfg.Seed + 0x5eed)),
		planes:  routes.Planes(),

		traceStride: topo.Ports(),
		part:        part,
	}
	// The control lane: the shared engine itself in a single-engine
	// run (exactly the old interleaving), a separate serialized engine
	// in parallel mode.  Control populations are small — a few
	// in-flight MADs and timers per open transaction.
	n.Ctrl = eng
	if part.Shards > 1 {
		n.Ctrl = &sim.Engine{}
		n.Ctrl.Grow(256)
	}
	// One shard per partition part, each with its own engine (shard 0
	// runs on Engine) preallocated for its part's steady-state event
	// population, so no shard pool reallocates mid-run.
	n.shards = make([]*shard, part.Shards)
	for k := range n.shards {
		sh := &shard{n: n, id: int32(k), eng: eng}
		if k > 0 {
			sh.eng = &sim.Engine{}
		}
		sh.eng.Grow(eventPoolSize(len(part.Hosts(k)), len(part.Switches(k)), topo.Ports()))
		n.shards[k] = sh
	}
	// Hosts, and switches with one input and one output port per port
	// of the radix, are carved from per-network slabs, as are the
	// arbiters: one per host and one per wired switch port.  Together
	// with the port tables' own slabs (admission.NewPorts) that keeps
	// construction at about a hundred and thirty objects on a k=8
	// fat-tree, most of them the routes.
	// The arbiters schedule from the ACTIVE (data-plane) table of each
	// port; admission writes the shadow and commits deltas, and every
	// swap re-arms the port (tableSwapped).  BuildControl already seeded
	// every port's low-priority table.
	radix := topo.Ports()
	arbiters := topo.NumHosts()
	for s := 0; s < topo.NumSwitches; s++ {
		for p := 0; p < radix; p++ {
			if topo.Wired(s, p) {
				arbiters++
			}
		}
	}
	arbs := make([]arbtable.Arbiter, arbiters)
	newArbiter := func(t *arbtable.Table) *arbtable.Arbiter {
		a := &carve(&arbs, 1)[0]
		a.Init(t)
		return a
	}
	swapped := n.tableSwapped
	hosts := make([]hostNode, topo.NumHosts())
	n.hosts = make([]*hostNode, topo.NumHosts())
	for h := range n.hosts {
		pt := ports.Host[h]
		pt.OnSwap(swapped, hostCode(h))
		sw, port := topo.HostSwitch(h)
		node := &hosts[h]
		node.id = h
		node.out = outPort{
			arb:        newArbiter(pt.Active()),
			pt:         pt,
			code:       hostCode(h),
			downSwitch: sw, downPort: port, downHost: -1,
			wired: true,
		}
		n.hosts[h] = node
	}

	nodes := make([]swNode, topo.NumSwitches)
	ins := make([]inPort, topo.NumSwitches*radix)
	outs := make([]outPort, topo.NumSwitches*radix)
	n.switches = make([]*swNode, topo.NumSwitches)
	for s := range n.switches {
		node := &nodes[s]
		lo, hi := s*radix, (s+1)*radix
		node.id, node.in, node.out = s, ins[lo:hi:hi], outs[lo:hi:hi]
		for p := range node.out {
			op := &node.out[p]
			op.pt = ports.Switch[s][p]
			op.code = switchCode(s, p)
			op.pt.OnSwap(swapped, op.code)
			op.downSwitch, op.downPort, op.downHost = -1, -1, -1
			ip := &node.in[p]
			ip.upSwitch, ip.upPort, ip.upHost = -1, -1, -1

			if host := topo.HostAt(s, p); host >= 0 {
				op.downHost = host
				op.wired = true
				ip.upHost = host
			} else if peer := topo.Peer(s, p); peer.Switch >= 0 {
				op.downSwitch, op.downPort = peer.Switch, peer.Port
				op.wired = true
				ip.upSwitch, ip.upPort = peer.Switch, peer.Port
			}
			// Only wired ports arbitrate (trySwitch and voqFreePorts
			// skip the rest), so only they carry an arbiter.
			if op.wired {
				op.arb = newArbiter(op.pt.Active())
			}
		}
		n.switches[s] = node
	}

	// Mark the boundary ends of every cross-shard link.  Only
	// switch-to-switch links can cross (hosts follow their attachment
	// switch), so host paths never consult the mirrors.
	crossing := 0
	for s, node := range n.switches {
		own := part.ShardOfSwitch(s)
		for p := range node.out {
			op := &node.out[p]
			if op.downSwitch >= 0 {
				if dsh := part.ShardOfSwitch(op.downSwitch); dsh != own {
					op.boundary = true
					op.downShard = int32(dsh)
					crossing++
				}
			}
			ip := &node.in[p]
			if ip.upSwitch >= 0 && part.ShardOfSwitch(ip.upSwitch) != own {
				ip.upBoundary = true
			}
		}
	}
	// Only the sending end of a boundary link keeps a credit mirror,
	// carved from one slab; a run on one shard carves none.
	mirrors := make([][arbtable.NumVLs]int32, crossing)
	for _, node := range n.switches {
		for p := range node.out {
			if op := &node.out[p]; op.boundary {
				op.bOcc = &carve(&mirrors, 1)[0]
			}
		}
	}

	// The switch model is a rule over a request index that keeps the one
	// view the rule reads (see pipeline.go).  The input-queued rule adds a
	// crossbar per switch, the iSLIP depth and the MWM oracle's scratch.
	n.rule = wrrRule{}
	if cfg.SwitchModel != ModelWRR {
		n.rule = voqRule{}
		n.islipIters = cfg.ISLIPIters
		if n.islipIters == 0 {
			n.islipIters = DefaultISLIPIters
		}
		xbars := make([]crossbar, topo.NumSwitches)
		for s, node := range n.switches {
			node.xbar = &xbars[s]
		}
		if cfg.SwitchModel == ModelVOQMWM {
			// The oracle's subset DP is O(P²·2^P); past 16 ports the
			// tables alone are gigabytes, so the full-radix shapes must
			// use a practical scheduler.
			if topo.Ports() > 16 {
				return nil, fmt.Errorf("fabric: the MWM oracle supports radix <= 16 switches, topology has radix %d (use wrr or voq-islip)", topo.Ports())
			}
			for _, sh := range n.shards {
				sh.mwm = newMWMScratch(topo.Ports())
			}
		}
	}
	ixs := newIndexes(topo.NumSwitches, radix, cfg.SwitchModel == ModelWRR)
	for s, node := range n.switches {
		node.ix = ixs[s]
	}
	return n, nil
}

// bufferCapacity is the per-VL input buffer size in bytes.
func (n *Network) bufferCapacity() int {
	return bufferPackets * (n.Cfg.PayloadBytes + sl.HeaderBytes)
}

// bindVL fixes a freshly built flow's injection VL: the base VL the
// mapping assigned, shifted into the plane the routing engine uses on
// the first hop.  Identity for single-plane engines (and for the
// management VL, which no plane ever shifts).
func (n *Network) bindVL(f *Flow) {
	if n.planes > 1 {
		sw, _ := n.Topo.HostSwitch(int(f.Src))
		f.VL = n.Routes.HopVL(sw, int(f.Dst), f.Base)
	}
}

// attach binds a freshly built flow's injection VL (bindVL), registers
// the flow and feeds its packet wire time into the lookahead bound.
// Flows attach before a run or from control events at window barriers,
// never from data-plane events, so the flows slice and the coordinator
// are safe to touch here.
func (n *Network) attach(f *Flow) *Flow {
	n.bindVL(f)
	n.flows = append(n.flows, f)
	if wire := int(f.Wire); n.minWire == 0 || wire < n.minWire {
		n.minWire = wire
		if n.coord != nil {
			// A smaller packet can cross a boundary sooner than the
			// current window width assumes; shrink before it exists.
			// (Raising for larger flows would be wrong: earlier small
			// flows still have packets in flight.)
			n.coord.Lookahead = n.lookaheadBound()
		}
	}
	return f
}

// AddConnection attaches a CBR traffic flow for an admitted QoS
// connection.
func (n *Network) AddConnection(conn *admission.Conn) *Flow {
	return n.attach(n.connFlow(conn, conn.Req.Mbps))
}

// AddMisbehavingConnection attaches a flow for an admitted connection
// that actually transmits at actualMbps instead of the reserved rate —
// the overshooting-source scenario of the paper's section 3.2
// (misbehavior only hurts connections sharing the same VL).
func (n *Network) AddMisbehavingConnection(conn *admission.Conn, actualMbps float64) *Flow {
	return n.attach(n.connFlow(conn, actualMbps))
}

// connFlow builds, without attaching it, the flow of an admitted
// connection sending at mbps.
func (n *Network) connFlow(conn *admission.Conn, mbps float64) *Flow {
	return newFlow(len(n.flows), conn.Req.Src, conn.Req.Dst,
		conn.Req.Level.SL, n.Mapping.VLFor(conn.Req.Level.SL),
		mbps, n.Cfg.PayloadBytes, conn.Deadline, true)
}

// AddVBRConnection attaches a variable-bit-rate flow for an admitted
// connection: an on/off source that emits bursts of burst packets at
// peakFactor times the reserved mean rate, then stays silent long
// enough to preserve the mean.  The reservation itself is whatever the
// connection was admitted with, so this models VBR sources whose
// bursts exceed their (mean-rate) reservation — the scenario the
// companion VBR evaluation of the authors studies.  A peak factor <= 1
// or a burst below 2 gives a plain CBR flow; a NaN or +Inf peak factor
// panics before anything is attached.
func (n *Network) AddVBRConnection(conn *admission.Conn, peakFactor float64, burst int) *Flow {
	f := n.connFlow(conn, conn.Req.Mbps)
	if peakFactor <= 1 || burst < 2 {
		return n.attach(f)
	}
	p := newVBRPacer(f, peakFactor, burst)
	f.paced = true
	if n.pacers == nil {
		n.pacers = make(map[int32]*vbrPacer)
	}
	n.pacers[f.ID] = p
	return n.attach(f)
}

// AddBestEffort attaches a best-effort background flow.
func (n *Network) AddBestEffort(be traffic.BestEffort) *Flow {
	return n.attach(newFlow(len(n.flows), be.Src, be.Dst, be.SL, n.Mapping.VLFor(be.SL),
		be.Mbps, n.Cfg.PayloadBytes, 0, false))
}

// Flows returns all attached flows.
func (n *Network) Flows() []*Flow { return n.flows }

// Start schedules the first packet of every flow at a random phase
// within its interarrival period, decorrelating the CBR sources.
func (n *Network) Start() {
	for _, f := range n.flows {
		n.StartFlow(f)
	}
}

// StartFlow schedules one flow's first packet (at a random phase
// within its interarrival period).  Use it for flows attached after
// Start, e.g. connections admitted while the fabric is live, and to
// restart a stopped flow.
func (n *Network) StartFlow(f *Flow) {
	// A restarted flow's first delivery opens a new interarrival
	// sequence: the stop is not jitter.
	f.stopped, f.lastArrival = false, -1
	phase := int64(0)
	if f.IAT > 1 {
		phase = n.rng.Int63n(f.IAT)
	}
	sh := n.shardForHost(int(f.Src))
	at := sh.eng.Now()
	if n.Parallel() && n.Ctrl.Now() > at {
		// Called from a control event: the shard clock is the barrier
		// time, which lags the control clock when the shard was idle.
		// Start no earlier than the admission that triggered us.
		at = n.Ctrl.Now()
	}
	sh.eng.Post(at+phase, sh, sim.Event{Kind: evGenerate, P: f})
}

// StopGeneration stops all sources after their current packet; used by
// drain tests and at the end of measurement.
func (n *Network) StopGeneration() { n.genStopped = true }

// Control-lane event kinds handled by the Network itself (a Handler's
// kind space is private, so these never collide with the shard kinds
// in events.go).
const (
	// evCtrlReleasePoll re-checks whether a stopping connection's
	// in-flight packets have drained; P is the *releaseWait.
	evCtrlReleasePoll sim.Kind = iota
)

// releaseWait is one pending connection teardown, polled on the
// control lane until the flow's in-flight packets drain.
type releaseWait struct {
	conn   *admission.Conn
	f      *Flow
	onDone func()
}

// HandleEvent executes the Network's control-lane events.  They run on
// Ctrl: interleaved with everything else in single-engine runs, only
// at window barriers in parallel mode — where reading the flow's
// source- and destination-shard counters and mutating the admission
// tables is race-free because every shard is quiescent.
func (n *Network) HandleEvent(ev sim.Event) {
	switch ev.Kind {
	case evCtrlReleasePoll:
		rw := ev.P.(*releaseWait)
		f := rw.f
		if f.delPkts+f.lostPkts < f.genPkts {
			n.Ctrl.PostAfter(f.IAT+1, n, ev)
			return
		}
		if err := n.Adm.Release(rw.conn); err != nil {
			panic(fmt.Sprintf("fabric: releasing drained connection: %v", err))
		}
		if rw.onDone != nil {
			rw.onDone()
		}
	}
}

// ReleaseConnection tears down an admitted connection while the fabric
// runs: the flow stops generating immediately, and once its in-flight
// packets have drained the reservation is released from every table on
// the path (freeing table slots while packets of a VL are still queued
// could stall them forever, so the release waits).  onDone, if not
// nil, runs right after the tables are updated.
func (n *Network) ReleaseConnection(conn *admission.Conn, f *Flow, onDone func()) {
	n.StopFlow(f)
	n.Ctrl.DeferEvent(n, sim.Event{
		Kind: evCtrlReleasePoll, P: &releaseWait{conn: conn, f: f, onDone: onDone},
	})
}

// ControlCounters returns the counter set the control plane — the
// subnet programmer, the auditor, failure recovery — should write
// into: the shared Metrics.Control in single-engine runs (the exact
// pointer callers always used), or the control lane's private set in
// parallel mode, which syncMetrics folds into the merged view.
// Enables metrics on first use.
func (n *Network) ControlCounters() *metrics.ControlCounters {
	n.EnableMetrics()
	if n.Parallel() {
		return &n.ctrlMetrics.Control
	}
	return &n.Metrics.Control
}

// PortShard returns the shard id owning an arbitration port: the
// switch's shard for a switch port, the attachment switch's shard for
// a host interface.  The programmer and auditor use it to count
// control sends whose target lives off the manager's home shard.
func (n *Network) PortShard(id admission.PortID) int {
	if id.Switch >= 0 {
		return n.part.ShardOfSwitch(id.Switch)
	}
	return n.part.ShardOfHost(id.Host)
}

// generate creates one packet of f, enqueues it at the source host and
// schedules the next generation.  Like every hot-path handler below it
// runs on the shard owning the node it touches.
func (sh *shard) generate(f *Flow) {
	if sh.n.genStopped || f.stopped {
		return
	}
	sh.enqueue(f, int(f.Wire), 0)
	gap := f.IAT
	if f.paced {
		gap = sh.n.pacers[f.ID].next()
	}
	sh.eng.PostAfter(gap, sh, sim.Event{Kind: evGenerate, P: f})
}

// enqueue puts a fresh packet of f, wire bytes long and carrying tag, on
// its source host's send queue and kicks the host — or drops and counts
// it when the queue is full.  It reports whether the packet was queued.
func (sh *shard) enqueue(f *Flow, wire int, tag int64) bool {
	n := sh.n
	host := n.hosts[f.Src]
	if host.queues[f.VL].len() >= n.queueCap(f) {
		f.Drops++
		sh.totalDropped++
		return false
	}
	host.queues[f.VL].push(sh.newPacket(f, f.VL, int(f.Dst), wire, sh.eng.Now(), tag))
	sh.totalInjected++
	f.genPkts++
	if n.measuring {
		f.Injected++
		sh.injectedBytes += int64(wire)
	}
	sh.kickHost(int(f.Src))
	return true
}

// kickHost schedules a scheduling pass at the host interface, unless
// one is pending or the interface is transmitting: a pass at a busy
// port returns at once, and the port's own evXmitDone at busyUntil
// kicks it again (busyUntil is written only by transmit).
func (sh *shard) kickHost(h int) {
	host := sh.n.hosts[h]
	if host.out.pending || host.out.busyUntil > sh.eng.Now() {
		return
	}
	host.out.pending = true
	sh.eng.DeferEvent(sh, sim.Event{Kind: evTryHost, A: int32(h)})
}

// tryHost runs one arbitration decision at a host interface.
func (sh *shard) tryHost(h int) {
	n := sh.n
	host := n.hosts[h]
	now := sh.eng.Now()
	if host.out.busyUntil > now {
		return
	}
	if n.Faults != nil && sh.faultBlocked(&host.out, faults.HostKey(h), now) {
		return
	}
	down := &n.switches[host.out.downSwitch].in[host.out.downPort]
	capacity := n.bufferCapacity()

	// Subnet management (VL 15) preempts all data lanes.
	if q := &host.queues[arbtable.MgmtVL]; q.len() > 0 &&
		int(down.occ[arbtable.MgmtVL])+q.front().Wire <= capacity {
		sh.transmit(&host.out, q.pop(), -1, arbtable.MgmtVL)
		return
	}

	var ready arbtable.Ready
	for vl := 0; vl < arbtable.NumDataVLs; vl++ {
		q := &host.queues[vl]
		if q.len() == 0 {
			continue
		}
		if int(down.occ[vl])+q.front().Wire > capacity {
			continue // no credit
		}
		ready[vl] = q.front().Wire
	}
	vl, ok := sh.pick(&host.out, &ready, hostTraceID(h), now)
	if !ok {
		return
	}
	pkt := host.queues[vl].pop()
	if m := sh.metrics; m != nil {
		m.AddVLBytes(vl, pkt.Wire)
		m.ObserveQueueDepth(int64(host.queues[vl].len()))
	}
	sh.transmit(&host.out, pkt, -1, pkt.VL)
}

// pick runs the arbitration table of out over the offered lanes and
// records a pick: a pick while a table program is in flight counts as
// scheduled under a stale epoch, and the trace (when attached) gets the
// decision under port id traceID.  It reports false when the table
// picked nothing.
func (sh *shard) pick(out *outPort, ready *arbtable.Ready, traceID int32, now int64) (int, bool) {
	vl, _, ok := out.arb.Pick(ready)
	if !ok {
		return 0, false
	}
	if out.pt.Programming() {
		out.pt.NoteStalePick()
	}
	if t := sh.eng.Trace; t != nil {
		lp := out.arb.Last()
		t.Record(metrics.TraceEvent{
			Time: now, Port: traceID, VL: uint8(vl),
			High: lp.High, Entry: int16(lp.Entry), WeightLeft: lp.Residual,
		})
	}
	return vl, true
}

// faultBlocked reports whether the scheduling point out (fault key key)
// is inside a fault window at time now; the caller has checked that a
// fault schedule is attached.  A window that ends gets one wake-up at
// its end: the time it was posted for is remembered on the port, so the
// passes that find the port blocked for the rest of the window post
// nothing.  Permanent failures never un-block on their own — recovery's
// revival re-arm covers them instead of an event at infinity.
func (sh *shard) faultBlocked(out *outPort, key int32, now int64) bool {
	until := sh.n.Faults.BlockedUntil(key, now)
	if until <= now {
		return false
	}
	if until < faults.Forever && out.wakeAt != until {
		out.wakeAt = until
		sh.eng.Post(until, sh, kickEvent(out.code))
	}
	return true
}

// kickEvent is the event that re-arms the port with the given code.
func kickEvent(code int32) sim.Event {
	if code < 0 {
		return sim.Event{Kind: evKickHost, A: -code - 1}
	}
	s, p := switchPort(code)
	return sim.Event{Kind: evKickSwitch, A: int32(s), B: int32(p)}
}

// tableSwapped re-arms the port with the given code after its active
// table was swapped (see core.PortTable.OnSwap).  A pass that found no
// table entry for a queued lane returned without sending, and nothing
// else may ever schedule the port again — the lane's packets were
// generated while the program was in flight and wait for no credit.
//
// A host is kicked only when a data lane holds a packet, and
// kickSwitch posts nothing at a port no head requests, so swaps at set
// up post nothing.  A swap runs on the control lane; in parallel mode
// that is a barrier, where the port's shard clock can lag the control
// clock, so the kick is posted at the control time, as StartFlow posts
// a flow's first packet.
func (n *Network) tableSwapped(code int32) {
	ev := kickEvent(code)
	var sh *shard
	if code < 0 {
		if !n.hosts[ev.A].hasData() {
			return
		}
		sh = n.shardForHost(int(ev.A))
	} else {
		sh = n.shardForSwitch(int(ev.A))
	}
	if at := n.Ctrl.Now(); at > sh.eng.Now() {
		sh.eng.Post(at, sh, ev)
		return
	}
	sh.HandleEvent(ev)
}

// faultFree returns the members of outs, a set of output ports of node,
// that are outside fault windows at time now (see faultBlocked).
func (sh *shard) faultFree(node *swNode, outs uint32, now int64) uint32 {
	if sh.n.Faults == nil {
		return outs
	}
	for w := outs; w != 0; w &= w - 1 {
		j := bits.TrailingZeros32(w)
		if sh.faultBlocked(&node.out[j], faults.SwitchPortKey(node.id, j), now) {
			outs &^= 1 << j
		}
	}
	return outs
}

// transmit puts pkt on out's wire: reserves downstream buffer space,
// occupies the link for the packet duration, schedules the arrival and
// the completion event that releases the source buffer (crediting its
// upstream) when the packet has fully left.  srcCode names the switch
// input buffer the packet came from (-1 when it came from a host send
// queue) and srcVL the VL that buffer held the packet on — under
// multi-plane routing pkt.VL is already the NEXT link's lane, so the
// credit must return on the lane the packet actually occupied; the
// completion and arrival are typed events, so a forwarded packet costs
// no allocation.
func (sh *shard) transmit(out *outPort, pkt *Packet, srcCode int32, srcVL uint8) {
	n := sh.n
	now := sh.eng.Now()
	dur := int64(pkt.Wire)
	out.busyUntil = now + dur
	if n.measuring {
		out.meter.Add(pkt.Wire)
	}

	if out.downSwitch >= 0 {
		if out.boundary {
			// Cross-shard link: consume credit on the local mirror; the
			// receiver accounts its real occupancy when the packet
			// lands, and batched returns repay the mirror at barriers.
			out.bOcc[pkt.VL] += int32(pkt.Wire)
		} else {
			down := &n.switches[out.downSwitch].in[out.downPort]
			down.occ[pkt.VL] += int32(pkt.Wire) // credit consumed at send time
		}
	}

	sh.eng.Post(now+dur, sh, sim.Event{
		Kind: evXmitDone, A: out.code, B: srcCode,
		N: int64(srcVL)<<32 | int64(pkt.Wire),
	})
	arrival := sim.Event{Kind: evArrive, A: out.code, B: int32(pkt.gen), P: pkt}
	if out.boundary {
		// The arrival executes on the downstream shard; it is batched
		// here and posted into the peer engine at the next barrier.
		// Its timestamp is at least one lookahead away, so it always
		// lands in a future window.
		sh.outbox = append(sh.outbox, boundaryEvent{
			shard: out.downShard, at: now + dur + LinkLatency, ev: arrival,
		})
	} else {
		sh.eng.Post(now+dur+LinkLatency, sh, arrival)
	}
}

// arrive lands a packet at the far end of a link: delivery when the
// end is a host, enqueueing at the switch input otherwise.  For a
// boundary link this runs on the RECEIVING shard, which also takes
// over the occupancy accounting the sender did locally elsewhere.
func (sh *shard) arrive(out *outPort, pkt *Packet) {
	n := sh.n
	if n.crashed != nil && sh.dropArrival(out, pkt) {
		return
	}
	if out.downHost >= 0 {
		sh.deliver(pkt)
		return
	}
	s := out.downSwitch
	node := n.switches[s]
	in := &node.in[out.downPort]
	if out.boundary {
		in.occ[pkt.VL] += int32(pkt.Wire)
	}
	p := n.Routes.NextPort(s, pkt.Dst)
	node.push(out.downPort, int(pkt.VL), p, pkt)
	sh.kickSwitch(s, p)
}

// deliver records a packet reaching its destination host and recycles
// the packet record.  Runs on the destination's shard; the fields it
// writes (delivery-side flow statistics, the shard's jitter histograms,
// delivery counters, the packet pool) are never touched by the source
// shard.
func (sh *shard) deliver(pkt *Packet) {
	n := sh.n
	sh.totalDelivered++
	pkt.Flow.delPkts++
	if n.measuring {
		f := pkt.Flow
		now := sh.eng.Now()
		f.Delivered++
		sh.deliveredBytes += int64(pkt.Wire)
		if f.QoS && f.Deadline > 0 {
			delay := now - pkt.Injected
			f.Delay.Add(float64(delay) / float64(f.Deadline))
			sh.metrics.CountDelivery(delay > f.Deadline)
		}
		if f.lastArrival >= 0 && f.IAT > 0 {
			dev := float64(now-f.lastArrival-f.IAT) / float64(f.IAT)
			sh.jitter[f.SL].Add(dev)
		}
		f.lastArrival = now
	}
	if n.OnDeliver != nil {
		n.OnDeliver(pkt)
	}
	sh.freePacket(pkt)
}

// StartMeasurement begins the steady-state window: per-flow statistics,
// per-SL jitter and port meters reset and deliveries start counting.
func (n *Network) StartMeasurement() {
	n.measuring = true
	n.measureStart = n.Now()
	for _, sh := range n.shards {
		sh.injectedBytes, sh.deliveredBytes = 0, 0
		clear(sh.jitter[:])
	}
	for _, f := range n.flows {
		f.resetMeasurement()
	}
	for _, h := range n.hosts {
		h.out.meter.Bytes, h.out.meter.Packets = 0, 0
	}
	for _, s := range n.switches {
		for p := range s.out {
			s.out[p].meter.Bytes, s.out[p].meter.Packets = 0, 0
		}
	}
}

// MeasuredElapsed returns the length of the measurement window so far.
func (n *Network) MeasuredElapsed() int64 { return n.Now() - n.measureStart }

// Totals returns whole-run conservation counters: packets injected
// into host queues, delivered to destinations, and dropped at source
// queues.  Each shard counts its own side (injections and drops at the
// source, deliveries at the destination); the totals are the sums.
func (n *Network) Totals() (injected, delivered, dropped int64) {
	for _, sh := range n.shards {
		injected += sh.totalInjected
		delivered += sh.totalDelivered
		dropped += sh.totalDropped
	}
	return injected, delivered, dropped
}

// LostPackets counts packets the failure-recovery subsystem drained
// with no surviving route (0 unless failures were injected).  Lost
// packets were injected but will never be delivered, so conservation
// is injected == delivered + queued + lost.
func (n *Network) LostPackets() int64 {
	var lost int64
	for _, sh := range n.shards {
		lost += sh.totalLost
	}
	return lost
}

// QueuedPackets counts packets currently sitting in host send queues
// and switch input buffers (for conservation checks).
func (n *Network) QueuedPackets() int64 {
	var q int64
	for _, h := range n.hosts {
		for vl := range h.queues {
			q += int64(h.queues[vl].len())
		}
	}
	for _, s := range n.switches {
		for p := range s.in {
			for vl := range s.in[p].queues {
				q += int64(s.in[p].queues[vl].len())
			}
		}
	}
	return q
}

// InjectedBytesPerCyclePerNode and DeliveredBytesPerCyclePerNode are
// the Table 2 traffic rows: bytes per byte time per host over the
// measurement window.
func (n *Network) InjectedBytesPerCyclePerNode() float64 {
	return n.perCyclePerNode(func(sh *shard) int64 { return sh.injectedBytes })
}

// DeliveredBytesPerCyclePerNode reports delivered traffic normalized
// like InjectedBytesPerCyclePerNode.
func (n *Network) DeliveredBytesPerCyclePerNode() float64 {
	return n.perCyclePerNode(func(sh *shard) int64 { return sh.deliveredBytes })
}

// perCyclePerNode normalizes a per-shard byte count summed over the
// shards by the measurement window and the host count.
func (n *Network) perCyclePerNode(bytes func(*shard) int64) float64 {
	el := n.MeasuredElapsed()
	if el <= 0 {
		return 0
	}
	var sum int64
	for _, sh := range n.shards {
		sum += bytes(sh)
	}
	return float64(sum) / float64(el) / float64(len(n.hosts))
}

// MeanHostUtilization returns the average host-interface link
// utilization (%) over the measurement window.
func (n *Network) MeanHostUtilization() float64 {
	el := n.MeasuredElapsed()
	if el <= 0 || len(n.hosts) == 0 {
		return 0
	}
	sum := 0.0
	for _, h := range n.hosts {
		sum += h.out.meter.Utilization(el)
	}
	return 100 * sum / float64(len(n.hosts))
}

// MeanSwitchPortUtilization returns the average utilization (%) of the
// wired inter-switch output ports over the measurement window.
func (n *Network) MeanSwitchPortUtilization() float64 {
	el := n.MeasuredElapsed()
	if el <= 0 {
		return 0
	}
	sum, cnt := 0.0, 0
	for _, s := range n.switches {
		for p := range s.out {
			// Structured generators place switch-to-switch links on
			// arbitrary ports, so select on the peer kind rather than
			// the irregular generator's port split.
			if !s.out[p].wired || s.out[p].downSwitch < 0 {
				continue
			}
			sum += s.out[p].meter.Utilization(el)
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return 100 * sum / float64(cnt)
}

// ReconfigStats sums the control-plane reconfiguration counters of
// every port: programs opened, blocks delivered, table swaps applied,
// torn-update aborts, and packets scheduled under a stale epoch.
func (n *Network) ReconfigStats() core.ReconfigStats {
	var sum core.ReconfigStats
	n.Adm.Ports().Each(func(_ admission.PortID, pt *core.PortTable) { sum.Add(pt.Stats()) })
	return sum
}

// CheckBuffers verifies the credit accounting of every switch input
// buffer: per-VL occupancy stays within [0, capacity] and covers at
// least the bytes of the packets actually queued (the rest being
// space reserved for packets still on the wire or in the crossbar).
// Every packet queue it walks — host send queues and the input buffers,
// which hold the VOQs' packets too — must be a well-formed chain (see
// pktQueue.wireBytes).
// It also audits what the scheduling passes read instead of scanning
// queues or tables, against a full scan: every arbiter's high-table
// slot masks (arbtable.Arbiter.CheckIndex) and every switch's request
// index (see checkIndex).
func (n *Network) CheckBuffers() error {
	capacity := n.bufferCapacity()
	for _, h := range n.hosts {
		if err := h.out.arb.CheckIndex(); err != nil {
			return fmt.Errorf("fabric: host %d: %w", h.id, err)
		}
		for vl := range h.queues {
			if _, err := h.queues[vl].wireBytes(); err != nil {
				return fmt.Errorf("fabric: host %d VL %d send queue: %w", h.id, vl, err)
			}
		}
	}
	for _, s := range n.switches {
		for p := range s.out {
			if arb := s.out[p].arb; arb != nil {
				if err := arb.CheckIndex(); err != nil {
					return fmt.Errorf("fabric: switch %d port %d: %w", s.id, p, err)
				}
			}
		}
		for p := range s.in {
			in := &s.in[p]
			for vl := 0; vl < arbtable.NumVLs; vl++ {
				occ := int(in.occ[vl])
				if occ < 0 {
					return fmt.Errorf("fabric: switch %d port %d VL %d occupancy %d < 0", s.id, p, vl, occ)
				}
				if occ > capacity {
					return fmt.Errorf("fabric: switch %d port %d VL %d occupancy %d > capacity %d",
						s.id, p, vl, occ, capacity)
				}
				queued, err := in.queues[vl].wireBytes()
				if err != nil {
					return fmt.Errorf("fabric: switch %d port %d VL %d input queue: %w", s.id, p, vl, err)
				}
				if queued > occ {
					return fmt.Errorf("fabric: switch %d port %d VL %d queued %d bytes > occupancy %d",
						s.id, p, vl, queued, occ)
				}
			}
		}
		// checkIndex follows the buffers' links, so it runs only once the
		// loop above has found every chain well formed.
		if err := n.checkIndex(s); err != nil {
			return err
		}
		// Boundary mirrors obey the same bounds as real occupancy: the
		// sender never reserves past capacity and batched credit
		// returns never repay bytes that were not reserved.
		for p := range s.out {
			out := &s.out[p]
			if !out.boundary {
				continue
			}
			for vl, occ := range out.bOcc {
				if occ < 0 {
					return fmt.Errorf("fabric: switch %d port %d VL %d boundary mirror %d < 0",
						s.id, p, vl, occ)
				}
				if int(occ) > capacity {
					return fmt.Errorf("fabric: switch %d port %d VL %d boundary mirror %d > capacity %d",
						s.id, p, vl, occ, capacity)
				}
			}
		}
	}
	return nil
}

// CheckInvariants audits the fabric at any instant through one entry
// point: the data plane's credits, queues and scheduling indexes
// (CheckBuffers), then, through admission, every port table and the
// reservation ledger (admission.Controller.CheckInvariants).  Packet
// conservation is not among them: it holds only once the network has
// drained, because QueuedPackets counts nothing on the wire, so
// CheckConservation stays a separate end-of-drain check.
func (n *Network) CheckInvariants() error {
	if err := n.CheckBuffers(); err != nil {
		return err
	}
	if err := n.Adm.CheckInvariants(); err != nil {
		return fmt.Errorf("fabric: %w", err)
	}
	return nil
}

// CheckConservation verifies that after generation has stopped and the
// network drained, every injected packet was delivered or dropped.
func (n *Network) CheckConservation() error {
	queued := n.QueuedPackets()
	injected, delivered, _ := n.Totals()
	lost := n.LostPackets()
	for _, sh := range n.shards {
		queued += int64(len(sh.outbox)) // boundary packets awaiting flush
	}
	if injected != delivered+queued+lost {
		return fmt.Errorf("fabric: injected %d != delivered %d + queued %d + lost %d",
			injected, delivered, queued, lost)
	}
	return nil
}
