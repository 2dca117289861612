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

	// Faults subjects SMPs and their responses to a fault injector's
	// fate draws and link-down windows.  Nil is the perfect management
	// network (and the only faults the legacy path can survive).
	Faults *faults.Injector

	// Retry enables reliable delivery (see reliable.go): response
	// timeouts, bounded exponential-backoff retransmission and
	// transaction deadlines.  The zero profile keeps the legacy
	// fire-and-forget path with its exact event schedule.
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
	// — the single-engine modes — leaves the counter untouched, so
	// existing snapshots keep their byte shape.
	ShardOf func(admission.PortID) int
	// HomeShard is the shard hosting the subnet manager's switch.
	HomeShard int

	txns     map[*core.PortTable]*txnState
	restarts map[*core.PortTable]int // torn-abort restarts per port
}

// noteSend counts one SMP leaving the SM toward id, flagging it as
// cross-shard when the target lives off the manager's home shard.
func (p *InbandProgrammer) noteSend(id admission.PortID) {
	if p.ShardOf != nil && p.ShardOf(id) != p.HomeShard {
		p.counters().CrossShardSent++
	}
}

// smpDelivery is one legacy fire-and-forget SMP in flight: the payload
// of its evSMPArrive event.
type smpDelivery struct {
	id   admission.PortID
	pt   *core.PortTable
	wire []byte
}

// NewInbandProgrammer returns a programmer injecting SMPs into eng,
// with hop distances taken from the manager's view of the fabric.
func NewInbandProgrammer(eng *sim.Engine, m *Manager) *InbandProgrammer {
	return &InbandProgrammer{Engine: eng, Hops: m.HopsToPort}
}

// HopsToPort returns the SM's hop distance to an arbitration point: a
// switch port is as far as its switch; a host interface is one hop
// beyond its home switch.
func (m *Manager) HopsToPort(id admission.PortID) int {
	if id.Host >= 0 {
		sw, _ := m.Topo.HostSwitch(id.Host)
		return 1 + m.depthTo(sw)
	}
	return m.hopsTo(id.Switch)
}

// Program implements admission.Programmer.
func (p *InbandProgrammer) Program(id admission.PortID, pt *core.PortTable, d core.Delta) error {
	if p.Retry.Enabled() {
		return p.programReliable(id, pt, d)
	}
	hops := 1
	if p.Hops != nil {
		hops = p.Hops(id)
	}
	total := len(d.Blocks)
	for k, b := range d.Blocks {
		pkt, err := mad.HighBlockSMP(d.Version, b.Index, total, b.Entries[:])
		if err != nil {
			return fmt.Errorf("subnet: block %d of %v: %w", b.Index, id, err)
		}
		wire, err := pkt.Marshal()
		if err != nil {
			return fmt.Errorf("subnet: block %d of %v: %w", b.Index, id, err)
		}
		p.Costs.addMAD(hops)
		p.noteSend(id)
		// The SM serializes its SMPs back to back; each then needs the
		// one-way path time to the port.
		delay := int64(k+1)*madWireBytes + int64(hops)*(madWireBytes+hopLatencyBT)
		p.Engine.PostAfter(delay, p,
			sim.Event{Kind: evSMPArrive, P: &smpDelivery{id: id, pt: pt, wire: wire}})
	}
	return nil
}

// arrive lands one SMP at its port: the wire bytes are parsed and the
// block staged.  When the delivery completes a transaction and the
// shadow table has moved on in the meantime, the next transaction is
// chained immediately.
func (p *InbandProgrammer) arrive(id admission.PortID, pt *core.PortTable, wire []byte) {
	pkt, err := mad.Unmarshal(wire)
	if err != nil {
		panic(fmt.Sprintf("subnet: SMP for %v corrupted on the wire: %v", id, err))
	}
	index, total, ok := mad.SplitArbModifier(pkt.Header.AttrModifier)
	if !ok {
		panic(fmt.Sprintf("subnet: SMP for %v is not a high-table block", id))
	}
	entries, err := mad.DecodeArbBlock(pkt.Data)
	if err != nil {
		panic(fmt.Sprintf("subnet: SMP for %v: %v", id, err))
	}
	var blk [core.BlockEntries]arbtable.Entry
	copy(blk[:], entries)
	applied, err := pt.DeliverBlock(pkt.Header.TID, index, total, blk)
	if err != nil {
		// The port rejected the set as torn and dropped its staged
		// state.  The shadow table is still authoritative: start over.
		p.chain(id, pt)
		return
	}
	if applied {
		p.chain(id, pt)
	}
}

// chain opens the next transaction for a port whose shadow and active
// tables still disagree (nothing to do when they match).
func (p *InbandProgrammer) chain(id admission.PortID, pt *core.PortTable) {
	if pt.Programming() || !pt.Dirty() {
		return
	}
	d, err := pt.BeginProgram()
	if err != nil || len(d.Blocks) == 0 {
		return
	}
	if err := p.Program(id, pt, d); err != nil {
		panic(fmt.Sprintf("subnet: chaining program for %v: %v", id, err))
	}
}
