package subnet

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mad"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// InbandProgrammer delivers committed table deltas as subnet
// management packets injected into a running simulation: each changed
// 16-entry block becomes one Set(VLArbitrationTable) SMP that is
// marshaled to its wire form, serialized out of the subnet manager,
// and arrives at the port after the path's MAD latency, where it is
// unmarshaled, decoded and staged.  The port swaps its active table
// only when the whole new-version set has arrived, so reconfiguration
// has a simulated cost and can never tear a table.
//
// One transaction is outstanding per port at a time.  If the shadow
// table changed again while a delta was in flight (e.g. a release
// during reprogramming), the programmer chains the next transaction as
// soon as the current one lands.
type InbandProgrammer struct {
	Engine *sim.Engine

	// Hops maps a port to its hop distance from the subnet manager;
	// nil charges every port one hop.
	Hops func(admission.PortID) int

	// Costs accumulates the MAD traffic of every programmed delta,
	// comparable with the Manager's discovery/bring-up costs.
	Costs Costs

	// Faults selects the delivery mode.  An attached injector subjects
	// SMPs and their responses to its fate draws and link-down windows,
	// and Program delivers reliably (see reliable.go).  Nil is the
	// perfect management network: SMPs are fired and forgotten, with
	// no acknowledgements and no timers.
	Faults *faults.Injector

	// Retry tunes reliable delivery: response timeouts, bounded
	// exponential-backoff retransmission and transaction deadlines.
	// NewInbandProgrammer starts from defaultRetryProfile.
	Retry RetryProfile

	// Counters receives the control-plane fault/recovery counters;
	// lazily self-initialized when nil.
	Counters *metrics.ControlCounters

	// OnGiveUp is called when reliable delivery abandons a port
	// (retransmits exhausted or deadline passed); the audit layer hooks
	// it to quarantine and later heal the port.
	OnGiveUp func(admission.PortID, *core.PortTable)

	// ShardOf, when set (parallel sharded fabrics), maps a port to the
	// shard owning it; every SMP sent toward a port whose shard
	// differs from HomeShard counts into Counters.CrossShardSent.  Nil
	// — single-engine runs — leaves the counter untouched, so
	// existing snapshots keep their byte shape.
	ShardOf func(admission.PortID) int
	// HomeShard is the shard hosting the subnet manager's switch.
	HomeShard int

	txns     map[*core.PortTable]*txnState
	restarts map[*core.PortTable]int // torn-abort restarts per port

	free *smpDelivery // recycled delivery records, linked through next
	// poison, set by tests, overwrites a record's wire bytes as it is
	// recycled, so that a use after recycle reads garbage at once.
	poison bool
}

// noteSend counts one SMP leaving the SM toward id, flagging it as
// cross-shard when the target lives off the manager's home shard.
func (p *InbandProgrammer) noteSend(id admission.PortID) {
	if p.ShardOf != nil && p.ShardOf(id) != p.HomeShard {
		p.counters().CrossShardSent++
	}
}

// smpDelivery is one SMP in flight toward a port: the payload of its
// evSMPArrive (fire-and-forget) or evSMPDeliver (reliable, tx set)
// event, with the SMP's wire bytes inline.  Records are recycled
// through the programmer's free list, so the steady-state control
// plane allocates nothing per SMP and the pool never holds more records
// than SMPs were ever in flight at once.
//
// Lifetime: newDelivery hands a record out, exactly one event carries
// it, and HandleEvent returns it with recycle only after the arrival
// handler — including any transaction that handler chains, which draws
// its own records — has returned.  A record is therefore never on the
// free list while an event or a handler still refers to it.
type smpDelivery struct {
	id   admission.PortID
	pt   *core.PortTable
	tx   *txnState // reliable mode: the transaction the SMP belongs to
	wire [mad.Size]byte

	next   *smpDelivery // free-list link
	flying bool         // handed out and not yet recycled
}

// newDelivery takes a record off the free list, or allocates the
// pool's next one.  The wire bytes are whatever the last flight left;
// the caller overwrites all of them.
func (p *InbandProgrammer) newDelivery(id admission.PortID, pt *core.PortTable, tx *txnState) *smpDelivery {
	d := p.free
	if d == nil {
		d = new(smpDelivery)
	} else {
		p.free = d.next
	}
	if d.flying {
		panic("subnet: delivery record handed out while in flight")
	}
	d.id, d.pt, d.tx, d.next, d.flying = id, pt, tx, nil, true
	return d
}

// recycle returns a record whose SMP has been handled (or never flew)
// to the free list.
func (p *InbandProgrammer) recycle(d *smpDelivery) {
	if !d.flying {
		panic("subnet: delivery record recycled twice")
	}
	if p.poison {
		for i := range d.wire {
			d.wire[i] = 0xff
		}
	}
	d.pt, d.tx, d.flying = nil, nil, false
	d.next, p.free = p.free, d
}

// encodeBlock renders block b of a total-block transaction as the
// Set(VLArbitrationTable) SMP the subnet manager sends, into wire.
func encodeBlock(wire *[mad.Size]byte, id admission.PortID, version uint64, total int, b core.BlockDelta) error {
	if err := mad.EncodeHighBlock(wire, mad.MethodSet, version, b.Index, total, b.Entries[:]); err != nil {
		return fmt.Errorf("subnet: block %d of %v: %w", b.Index, id, err)
	}
	return nil
}

// NewInbandProgrammer returns a programmer injecting SMPs into eng,
// with hop distances taken from the manager's view of the fabric.
func NewInbandProgrammer(eng *sim.Engine, m *Manager) *InbandProgrammer {
	return &InbandProgrammer{Engine: eng, Hops: m.hopsToPort, Retry: defaultRetryProfile()}
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

// Program implements admission.Programmer.  The whole delta is encoded
// before its first SMP is posted, so a delta the codec rejects (block
// index or count out of range) leaves no event, no cost and no record
// behind.
func (p *InbandProgrammer) Program(id admission.PortID, pt *core.PortTable, d core.Delta) error {
	if p.Faults != nil {
		return p.programReliable(id, pt, d)
	}
	blocks := d.Blocks()
	var flights [core.NumHighBlocks]*smpDelivery
	for k := range blocks {
		fl := p.newDelivery(id, pt, nil)
		flights[k] = fl
		if err := encodeBlock(&fl.wire, id, d.Version, len(blocks), blocks[k]); err != nil {
			for _, fl := range flights[:k+1] {
				p.recycle(fl)
			}
			return err
		}
	}
	hops := 1
	if p.Hops != nil {
		hops = p.Hops(id)
	}
	for k, fl := range flights[:len(blocks)] {
		p.Costs.addMAD(hops)
		p.noteSend(id)
		// The SM serializes its SMPs back to back; each then needs the
		// one-way path time to the port.
		delay := int64(k+1)*madWireBytes + int64(hops)*(madWireBytes+hopLatencyBT)
		p.Engine.PostAfter(delay, p, sim.Event{Kind: evSMPArrive, P: fl})
	}
	return nil
}

// arrive lands one SMP at its port: the wire bytes are parsed and the
// block staged.  When the delivery completes a transaction and the
// shadow table has moved on in the meantime, the next transaction is
// chained immediately.
func (p *InbandProgrammer) arrive(id admission.PortID, pt *core.PortTable, wire []byte) {
	var blk [core.BlockEntries]arbtable.Entry
	version, index, total, err := mad.DecodeHighBlock(wire, &blk)
	if err != nil {
		panic(fmt.Sprintf("subnet: SMP for %v corrupted on the wire: %v", id, err))
	}
	applied, err := pt.DeliverBlock(version, index, total, blk)
	// An error means the port rejected the set as torn and dropped its
	// staged state.  The shadow table is still authoritative: start over.
	if applied || err != nil {
		p.chain(id, pt)
	}
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
	if err != nil || len(d.Blocks()) == 0 {
		return
	}
	if err := p.Program(id, pt, d); err != nil {
		panic(fmt.Sprintf("subnet: chaining program for %v: %v", id, err))
	}
}
