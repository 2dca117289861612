package subnet

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mad"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// InbandProgrammer delivers committed table deltas as subnet
// management packets injected into a running simulation: each changed
// 16-entry block becomes one Set(VLArbitrationTable) SMP, serialized
// out of the subnet manager, that arrives at the port after the path's
// MAD latency, is staged, and is answered with a response, as a port
// answers every SubnSet on QP 0 (reliable.go); only an SMP whose fate
// can act on it is encoded to its wire form.  The port swaps its
// active table only when the whole new-version set has arrived, so
// reconfiguration has a simulated cost and can never tear a table.
//
// One transaction is outstanding per port at a time.  If the shadow
// table changed again while a delta was in flight (e.g. a release
// during reprogramming), the programmer chains the next transaction as
// soon as the current one is answered.
type InbandProgrammer struct {
	Engine *sim.Engine

	// Hops maps a port to its hop distance from the subnet manager;
	// nil charges every port one hop.
	Hops func(admission.PortID) int

	// Costs accumulates the MAD traffic of every programmed delta,
	// comparable with the Manager's discovery/bring-up costs.
	Costs Costs

	// Faults subjects SMPs and their responses to its fate draws and
	// link-down windows.  Nil is the perfect management network.
	Faults *faults.Injector

	// Retry tunes response timeouts, bounded exponential-backoff
	// retransmission and transaction deadlines.
	Retry RetryProfile

	// Counters receives the control-plane fault/recovery counters;
	// lazily self-initialized when nil.
	Counters *metrics.ControlCounters

	// OnGiveUp is called when delivery abandons a port (retransmits
	// exhausted or deadline passed); the audit layer hooks it to
	// quarantine and later heal the port.
	OnGiveUp func(admission.PortID, *core.PortTable)

	// ShardOf, when set (parallel sharded fabrics), maps a port to the
	// shard owning it; every SMP sent toward a port whose shard
	// differs from HomeShard counts into Counters.CrossShardSent.  Nil
	// — single-engine runs — leaves the counter untouched, so
	// existing snapshots keep their byte shape.
	ShardOf func(admission.PortID) int
	// HomeShard is the shard hosting the subnet manager's switch.
	HomeShard int

	hostPorts   []*portState   // by host
	switchPorts [][]*portState // by switch, then port
	seq         int64          // serial number of the last transaction opened
	open        int            // transactions open

	txns       freeList[txnState, *txnState]
	deliveries freeList[smpDelivery, *smpDelivery]
	// poison, set by tests, overwrites a recycled record's wire or
	// blocks, so that a use after recycle reads garbage at once.
	poison bool
}

// noteSend counts one SMP leaving the SM toward id, flagging it as
// cross-shard when the target lives off the manager's home shard.
func (p *InbandProgrammer) noteSend(id admission.PortID) {
	if p.ShardOf != nil && p.ShardOf(id) != p.HomeShard {
		p.counters().CrossShardSent++
	}
}

// freeList recycles the records of one type, so that the steady-state
// control plane allocates nothing: get hands a record out, put takes it
// back, and both panic on a record handed out or returned twice.
type freeList[T any, P interface {
	*T
	inUse() *bool
}] []P

func (f *freeList[T, P]) get() P {
	var r P
	if n := len(*f); n > 0 {
		r, *f = (*f)[n-1], (*f)[:n-1]
	} else {
		r = new(T)
	}
	if *r.inUse() {
		panic("subnet: record handed out while in use")
	}
	*r.inUse() = true
	return r
}

func (f *freeList[T, P]) put(r P) {
	if !*r.inUse() {
		panic("subnet: record recycled twice")
	}
	*r.inUse() = false
	*f = append(*f, r)
}

// smpDelivery is one SMP flying alone toward its port, the payload of
// an evSMPDeliver event, with its own copy of the wire to corrupt.  It
// may outlive its transaction as a straggler; HandleEvent recycles it
// after the arrival handler has returned.
type smpDelivery struct {
	ps      *portState
	seq     int64  // the sending transaction's serial number
	version uint64 // and its table version
	hops    int
	wire    [mad.Size]byte
	used    bool
}

func (d *smpDelivery) inUse() *bool { return &d.used }

// encodeBlock renders block b of a total-block transaction, which
// Program has checked, as the Set(VLArbitrationTable) SMP the subnet
// manager sends, into wire.
func encodeBlock(wire *[mad.Size]byte, version uint64, total int, b *core.BlockDelta) {
	if err := mad.EncodeHighBlock(wire, mad.MethodSet, version, b.Index, total, b.Entries[:]); err != nil {
		panic(err)
	}
}

// NewInbandProgrammer returns a programmer injecting SMPs into eng,
// with hop distances taken from the manager's view of the fabric.
func NewInbandProgrammer(eng *sim.Engine, m *Manager) *InbandProgrammer {
	return &InbandProgrammer{Engine: eng, Hops: m.hopsToPort}
}

// hopsToPort returns the SM's hop distance to an arbitration point: a
// switch port is as far as its switch; a host interface is one hop
// beyond its home switch.
func (m *Manager) hopsToPort(id admission.PortID) int {
	if id.Host >= 0 {
		sw, _ := m.Topo.HostSwitch(id.Host)
		return 1 + m.depthTo(sw)
	}
	return m.hopsTo(id.Switch)
}

// chain opens the next transaction for a port whose shadow and active
// tables still disagree (nothing to do when they match: BeginProgram
// then compares the blocks written since the delta was opened and
// returns an empty one).
func (p *InbandProgrammer) chain(id admission.PortID, pt *core.PortTable) {
	if pt.Programming() {
		return
	}
	d, err := pt.BeginProgram()
	if err != nil || d == nil {
		return
	}
	if err := p.Program(id, pt, d); err != nil {
		panic(fmt.Sprintf("subnet: chaining program for %v: %v", id, err))
	}
}
