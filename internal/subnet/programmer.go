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
// has a simulated cost and can never tear a table.  On a perfect
// management network nothing can observe a block staged before the
// last one arrives, so a transaction's SMPs fly together and land on
// one event at the last one's arrival time.
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

// smpDelivery is one flight toward a port, with its SMPs' wire bytes
// inline: a whole fire-and-forget transaction, the payload of its
// evSMPArrive event, or one reliable-mode SMP, the payload of its
// evSMPDeliver event (tx set).  Records are recycled through the
// programmer's free list, so the steady-state control plane allocates
// nothing per transaction and the pool never holds more records than
// flights were ever in the air at once.
//
// Lifetime: newDelivery hands a record out, exactly one event carries
// it, and HandleEvent returns it with recycle only after the arrival
// handler — including any transaction that handler chains, which draws
// its own records — has returned.  A record is therefore never on the
// free list while an event or a handler still refers to it.
type smpDelivery struct {
	id    admission.PortID
	pt    *core.PortTable
	tx    *txnState        // reliable mode: the transaction the SMP belongs to
	wires [][mad.Size]byte // one per SMP carried; the backing array only grows

	next   *smpDelivery // free-list link
	flying bool         // handed out and not yet recycled
}

// newDelivery takes a record off the free list, or allocates the
// pool's next one, carrying n SMPs.  A record's wires grow to the most
// SMPs it ever carried, so a reliable-mode record holds one.  The wire
// bytes are whatever the last flight left; the caller overwrites all
// of them.
func (p *InbandProgrammer) newDelivery(id admission.PortID, pt *core.PortTable, tx *txnState, n int) *smpDelivery {
	d := p.free
	if d == nil {
		d = new(smpDelivery)
	} else {
		p.free = d.next
	}
	if d.flying {
		panic("subnet: delivery record handed out while in flight")
	}
	if cap(d.wires) < n {
		d.wires = make([][mad.Size]byte, n)
	}
	d.id, d.pt, d.tx, d.wires, d.next, d.flying = id, pt, tx, d.wires[:n], nil, true
	return d
}

// recycle returns a record whose SMP has been handled (or never flew)
// to the free list.
func (p *InbandProgrammer) recycle(d *smpDelivery) {
	if !d.flying {
		panic("subnet: delivery record recycled twice")
	}
	if p.poison {
		all := d.wires[:cap(d.wires)]
		for k := range all {
			for i := range all[k] {
				all[k][i] = 0xff
			}
		}
	}
	d.pt, d.tx, d.flying = nil, nil, false
	d.next, p.free = p.free, d
}

// encodeBlock renders block b of a total-block transaction as the
// Set(VLArbitrationTable) SMP the subnet manager sends, into wire.
func encodeBlock(wire *[mad.Size]byte, id admission.PortID, version uint64, total int, b *core.BlockDelta) error {
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

// Program implements admission.Programmer.  Every block is encoded to
// its own SMP, and every SMP accounted, before the flight is posted, so
// a delta the codec rejects (block index or count out of range) leaves
// no event, no cost and no record behind.  The SM serializes the SMPs
// back to back and each then needs the one-way path time to the port;
// the flight lands when the last one arrives.
func (p *InbandProgrammer) Program(id admission.PortID, pt *core.PortTable, d *core.Delta) error {
	if p.Faults != nil {
		return p.programReliable(id, pt, d)
	}
	blocks := d.Blocks()
	fl := p.newDelivery(id, pt, nil, len(blocks))
	for k := range blocks {
		if err := encodeBlock(&fl.wires[k], id, d.Version, len(blocks), &blocks[k]); err != nil {
			p.recycle(fl)
			return err
		}
	}
	hops := 1
	if p.Hops != nil {
		hops = p.Hops(id)
	}
	for range blocks {
		p.Costs.addMAD(hops)
		p.noteSend(id)
	}
	delay := int64(len(blocks))*madWireBytes + int64(hops)*(madWireBytes+hopLatencyBT)
	p.Engine.PostAfter(delay, p, sim.Event{Kind: evSMPArrive, P: fl})
	return nil
}

// arrive lands a fire-and-forget flight at its port: each SMP, in block
// order, is parsed and its block staged.  When a delivery completes the
// transaction and the shadow table has moved on in the meantime, the
// next transaction is chained immediately.
func (p *InbandProgrammer) arrive(fl *smpDelivery) {
	for k := range fl.wires {
		var blk [core.BlockEntries]arbtable.Entry
		version, index, total, err := mad.DecodeHighBlock(fl.wires[k][:], &blk)
		if err != nil {
			panic(fmt.Sprintf("subnet: SMP for %v corrupted on the wire: %v", fl.id, err))
		}
		applied, err := fl.pt.DeliverBlock(version, index, total, &blk)
		// An error means the port rejected the set as torn and dropped
		// its staged state.  The shadow table is still authoritative:
		// start over.
		if applied || err != nil {
			p.chain(fl.id, fl.pt)
		}
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
	if err != nil || d == nil {
		return
	}
	if err := p.Program(id, pt, d); err != nil {
		panic(fmt.Sprintf("subnet: chaining program for %v: %v", id, err))
	}
}
