package subnet

import (
	"cmp"
	"fmt"
	"math"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/mad"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// This file is the programmer's delivery protocol, the same with or
// without a fault injector (nil is the perfect one).  Every SMP is
// answered by a response SMP.  A transaction whose fates are all intact
// flies: its SMPs land together at the last one's arrival time, and its
// responses come back together, with no timer.  Otherwise each block
// flies alone, subject to its fate (drop, duplicate, corrupt, reorder)
// and the link's down windows, with its own response and a per-block
// timeout, exponential backoff and bounded retransmission; a deadline
// then bounds the transaction, after which the port's staged state is
// cancelled (byte-identical rollback) and the port handed to the
// give-up hook (the audit path quarantines it).  A flight is the
// per-block protocol with every fate intact, in fewer events: every
// swap, chained transaction, MAD and fate draw happens at the instant,
// and in the order, the per-block protocol gives it.  Retransmission is
// safe because DeliverBlock is idempotent: duplicates and stragglers of
// settled transactions are ignored; contradictions tear the staged set
// down and the coordinator restarts from the authoritative shadow.

// RetryProfile configures delivery.  A zero field takes its default,
// which tolerates several consecutive losses per block before giving a
// port up, with a deadline far beyond the worst-case retransmission
// ladder of a healthy fabric.
type RetryProfile struct {
	// AckTimeoutBT is the backoff base: the k-th send of a block waits
	// its serialization plus round-trip time plus AckTimeoutBT<<k before
	// declaring the response lost.  Default 2 MAD wire times.
	AckTimeoutBT int64
	// MaxAttempts bounds sends per block, and also transaction restarts
	// after torn aborts; exhaustion abandons the transaction and hands
	// the port to OnGiveUp.  Default 5.
	MaxAttempts int
	// DeadlineBT aborts a transaction still open this many byte times
	// after it was programmed.  Default 2^18.
	DeadlineBT int64
}

// withDefaults returns r with every zero field set to its default.
func (r RetryProfile) withDefaults() RetryProfile {
	return RetryProfile{
		AckTimeoutBT: cmp.Or(r.AckTimeoutBT, 2*madWireBytes),
		MaxAttempts:  cmp.Or(r.MaxAttempts, 5),
		DeadlineBT:   cmp.Or(r.DeadlineBT, 1<<18),
	}
}

// Typed-event kinds of the programmer's control plane, so the whole
// control plane can run on a coordinator's serialized control lane.
// Every event but evSMPDeliver names its transaction by the port's
// record (P) and the transaction's serial number (N), never by pointer:
// a transaction's record is recycled the moment it settles, and a later
// event of it finds another serial number, or none, and falls dead.
// The two timers are cancelable, and settling cancels them.
const (
	// evFlight lands every SMP of a flying transaction at its port.
	evFlight sim.Kind = iota
	// evFlightAck lands a flight's responses, when they chain a successor.
	evFlightAck
	// evSMPDeliver lands one SMP flying alone; P is the *smpDelivery.
	evSMPDeliver
	// evSMPAck lands one SMP's response at the SM: block index in A,
	// torn verdict in B.
	evSMPAck
	// evBlockTimeout declares block A's attempt-B response lost.
	evBlockTimeout
	// evTxnDeadline aborts the still-open transaction.
	evTxnDeadline
)

// HandleEvent dispatches the programmer's control events.  It
// implements sim.Handler.
func (p *InbandProgrammer) HandleEvent(ev sim.Event) {
	if ev.Kind == evSMPDeliver {
		fl := ev.P.(*smpDelivery)
		p.arrive(fl)
		if p.poison { // a poisoned SMP names block 254: a late reader fails
			for i := range fl.wire {
				fl.wire[i] = 0xff
			}
		}
		fl.ps = nil
		p.deliveries.put(fl)
		return
	}
	ps := ev.P.(*portState)
	tx := ps.tx
	if tx == nil || tx.seq != ev.N {
		return // the event's transaction settled
	}
	switch ev.Kind {
	case evFlight:
		p.land(ps, tx)
	case evFlightAck:
		p.commit(ps)
	case evSMPAck:
		p.ack(ps, tx, int(ev.A), ev.B != 0)
	case evBlockTimeout:
		p.timeout(ps, tx, int(ev.A), int(ev.B))
	case evTxnDeadline:
		p.counters().DeadlineAborts++
		p.giveUp(ps)
	}
}

// portState is the programmer's record of one port: its open
// transaction, its torn restarts since it last committed, and the first
// instant at which no lone SMP or audit probe can draw on its link.
type portState struct {
	id        admission.PortID
	pt        *core.PortTable
	tx        *txnState
	restarts  int
	quietFrom int64
}

// port returns the record of port id, whose table is pt.
func (p *InbandProgrammer) port(id admission.PortID, pt *core.PortTable) *portState {
	row, i := &p.hostPorts, id.Host
	if i < 0 {
		for len(p.switchPorts) <= id.Switch {
			p.switchPorts = append(p.switchPorts, nil)
		}
		row, i = &p.switchPorts[id.Switch], id.Port
	}
	for len(*row) <= i {
		*row = append(*row, nil)
	}
	if (*row)[i] == nil {
		(*row)[i] = &portState{id: id, pt: pt}
	}
	return (*row)[i]
}

// txnState is the coordinator's view of one open transaction, from the
// programmer's free list.
type txnState struct {
	seq     int64
	version uint64
	hops    int
	n       int                                 // blocks
	blocks  [core.NumHighBlocks]core.BlockDelta // retained for retransmission
	acked   [core.NumHighBlocks]bool
	attempt [core.NumHighBlocks]int // sends so far, per block; timeouts of superseded sends are stale
	pending int                     // blocks not yet acknowledged

	timers   [core.NumHighBlocks]sim.Timer // response timeout per block (latest send)
	deadline sim.Timer                     // armed by every transaction that does not fly
	used     bool
}

func (tx *txnState) inUse() *bool { return &tx.used }

// settle closes the port's open transaction (committed, torn, given up
// or superseded), cancels its timers and recycles its record.
func (p *InbandProgrammer) settle(ps *portState) {
	tx := ps.tx
	if tx.deadline != (sim.Timer{}) {
		for i := range tx.timers {
			p.Engine.Cancel(tx.timers[i])
		}
		p.Engine.Cancel(tx.deadline)
	}
	ps.tx, p.open = nil, p.open-1
	p.recycleTxn(tx)
}

func (p *InbandProgrammer) recycleTxn(tx *txnState) {
	if p.poison { // block 255 of VL-255 entries: DeliverBlock refuses it
		for k := range tx.blocks {
			b := &tx.blocks[k]
			b.Index = 0xff
			for i := range b.Entries {
				b.Entries[i] = arbtable.Entry{VL: 0xff, Weight: 0xff}
			}
		}
	}
	tx.acked, tx.attempt = [core.NumHighBlocks]bool{}, [core.NumHighBlocks]int{}
	tx.timers, tx.deadline = [core.NumHighBlocks]sim.Timer{}, sim.Timer{}
	p.txns.put(tx)
}

// linkKey maps an arbitration point to its fault-injector link key.
func linkKey(id admission.PortID) int32 {
	if id.Host >= 0 {
		return faults.HostKey(id.Host)
	}
	return faults.SwitchPortKey(id.Switch, id.Port)
}

// hops returns the SM's hop distance to port id.
func (p *InbandProgrammer) hops(id admission.PortID) int {
	if p.Hops == nil {
		return 1
	}
	return p.Hops(id)
}

// oneWayBT is an SMP's path time to a port hops away, after its
// serialization out of the SM.
func oneWayBT(hops int) int64 { return int64(hops) * (madWireBytes + fabric.LinkLatency) }

// counters returns the control-plane counter sink, self-initializing so
// the protocol never branches on a missing one.
func (p *InbandProgrammer) counters() *metrics.ControlCounters {
	if p.Counters == nil {
		p.Counters = &metrics.ControlCounters{}
	}
	return p.Counters
}

// OpenTransactions returns the number of transactions still open.
// Experiments assert it reaches zero: every transaction terminates by
// commit, torn restart, or give-up.
func (p *InbandProgrammer) OpenTransactions() int { return p.open }

// Program implements admission.Programmer.  Every block is checked
// first, as the codec's encoder checks it, so a delta the codec rejects
// leaves no event, cost or record behind, flying or not.  The SM
// serializes the SMPs back to back, and each then needs the one-way
// path time to the port.
func (p *InbandProgrammer) Program(id admission.PortID, pt *core.PortTable, d *core.Delta) error {
	blocks := d.Blocks()
	for k := range blocks {
		if err := mad.CheckHighBlock(blocks[k].Index, len(blocks), blocks[k].Entries[:]); err != nil {
			return fmt.Errorf("subnet: block %d of %v: %w", blocks[k].Index, id, err)
		}
	}
	tx := p.txns.get()
	copy(tx.blocks[:], blocks)
	hops := p.hops(id)
	ps := p.port(id, pt)
	if ps.tx != nil {
		// The port accepted a new BeginProgram, so the old transaction's
		// blocks all landed and its table swapped; only its responses
		// were lost or are still in the air.  The successor supersedes
		// it.
		p.settle(ps)
	}
	p.seq++
	tx.seq, tx.version, tx.hops, tx.n, tx.pending = p.seq, d.Version, hops, len(blocks), len(blocks)
	ps.tx, p.open = tx, p.open+1
	rp := p.Retry.withDefaults()
	if p.flies(ps, tx, rp) {
		for range blocks {
			p.Costs.addMAD(hops)
			p.noteSend(id)
		}
		p.Engine.PostAfter(int64(tx.n)*madWireBytes+oneWayBT(hops), p, sim.Event{Kind: evFlight, N: tx.seq, P: ps})
		return nil
	}
	for k := range blocks {
		p.sendBlock(ps, tx, k, 0, int64(k+1)*madWireBytes)
	}
	tx.deadline = p.Engine.PostTimerAfter(rp.DeadlineBT, p, sim.Event{Kind: evTxnDeadline, N: tx.seq, P: ps})
	return nil
}

// flies reports whether a transaction just opened flies, and if so
// draws its fates.  It does when no torn restart is pending on the
// port, nothing else can draw a fate on its link before the last
// response lands (a port given up to the auditor is never quiet
// again), every response lands before its block's first timeout and
// the last before the deadline, the link is up when the SMPs leave and
// whenever one lands (windows are installed before the outages they
// open), and the link's next fates — one per SMP, then one per
// response, the order the per-block protocol draws them in — are all
// intact.
func (p *InbandProgrammer) flies(ps *portState, tx *txnState, rp RetryProfile) bool {
	now, link, oneWay := p.Engine.Now(), linkKey(ps.id), oneWayBT(tx.hops)
	answered := int64(tx.n+1)*madWireBytes + 2*oneWay
	if ps.restarts != 0 || now < ps.quietFrom || rp.AckTimeoutBT <= madWireBytes ||
		answered >= rp.DeadlineBT || p.Faults.DownUntil(link, now) > now {
		return false
	}
	for k := 1; k <= tx.n; k++ {
		if at := now + int64(k)*madWireBytes + oneWay; p.Faults.DownUntil(link, at) > at {
			return false
		}
	}
	return p.Faults.TakeIntact(link, 2*tx.n)
}

// land stages a flying transaction's blocks, unencoded, in block order;
// the last swaps the table.  The responses land a MAD wire time and a
// path later, which matters only if the shadow moved on meanwhile: they
// chain the next transaction then.  Otherwise the transaction settles
// now (a writer finds the port idle, and supersedes it by programming).
func (p *InbandProgrammer) land(ps *portState, tx *txnState) {
	for k := range tx.n {
		if _, err := ps.pt.DeliverBlock(tx.version, tx.blocks[k].Index, tx.n, &tx.blocks[k].Entries); err != nil {
			panic(fmt.Sprintf("subnet: flight to %v: %v", ps.id, err))
		}
	}
	if ps.pt.Dirty() {
		p.Engine.PostAfter(madWireBytes+oneWayBT(tx.hops), p, sim.Event{Kind: evFlightAck, N: tx.seq, P: ps})
		return
	}
	p.commit(ps)
}

// commit settles an answered transaction and chains the next one if the
// shadow moved on meanwhile.
func (p *InbandProgrammer) commit(ps *portState) {
	p.settle(ps)
	ps.restarts = 0
	p.chain(ps.id, ps.pt)
}

// sendBlock transmits one attempt of one block through the injector and
// arms its response timeout.  An SMP its fate does not drop is encoded
// into a delivery record of its own.
func (p *InbandProgrammer) sendBlock(ps *portState, tx *txnState, k, attempt int, serializeBT int64) {
	p.Costs.addMAD(tx.hops)
	p.noteSend(ps.id)
	tx.attempt[k] = attempt + 1
	now, link, oneWay := p.Engine.Now(), linkKey(ps.id), oneWayBT(tx.hops)

	// The timeout covers serialization, the round trip and backoff
	// headroom that doubles per attempt.  Re-arming replaces the block's
	// timer handle; acking or settling cancels it.
	timeout := serializeBT + 2*oneWay + p.Retry.withDefaults().AckTimeoutBT<<attempt
	tx.timers[k] = p.Engine.PostTimerAfter(timeout, p,
		sim.Event{Kind: evBlockTimeout, A: int32(k), B: int32(attempt), N: tx.seq, P: ps})

	fate := p.Faults.SMPFate(link)
	if fate.Drop || p.Faults.DownUntil(link, now) > now {
		p.counters().SMPsDropped++
		return
	}
	fl := p.deliveries.get()
	fl.ps, fl.seq, fl.version, fl.hops = ps, tx.seq, tx.version, tx.hops
	encodeBlock(&fl.wire, tx.version, tx.n, &tx.blocks[k])
	if fate.Corrupt() {
		fl.wire[fate.CorruptByte%len(fl.wire)] ^= fate.CorruptMask
		p.counters().SMPsCorrupted++
	}
	delay := serializeBT + oneWay + fate.DelayBT
	p.Engine.PostAfter(delay, p, sim.Event{Kind: evSMPDeliver, P: fl})
	if fate.Duplicate {
		p.counters().SMPsDuplicated++
		dup := p.deliveries.get()
		*dup = *fl
		delay += madWireBytes
		p.Engine.PostAfter(delay, p, sim.Event{Kind: evSMPDeliver, P: dup})
	}
	ps.quietFrom = max(ps.quietFrom, now+delay+1)
}

// arrive lands one lone SMP, possibly corrupted or a straggler, at its
// port.  One that no longer parses is discarded (the sender's timeout
// recovers); a parsed block goes through DeliverBlock, and the port
// answers with the verdict, subject to the return path's fate: a lost
// or corrupted response never reaches the SM (a corrupted one fails its
// check there and is discarded), so the block's timeout recovers it as
// a lost one, and a duplicated one lands twice, a MAD wire time apart,
// the second ignored by ack.  A response naming another version than
// its transaction's would be ignored at the SM, so it is not posted.
func (p *InbandProgrammer) arrive(fl *smpDelivery) {
	ps := fl.ps
	var blk [core.BlockEntries]arbtable.Entry
	version, index, total, err := mad.DecodeHighBlock(fl.wire[:], &blk)
	if err != nil {
		return
	}
	_, derr := ps.pt.DeliverBlock(version, index, total, &blk)
	now, link := p.Engine.Now(), linkKey(ps.id)
	rf := p.Faults.SMPFate(link)
	if rf.Drop || p.Faults.DownUntil(link, now) > now {
		p.counters().AcksLost++
		return
	}
	if rf.Duplicate {
		p.counters().SMPsDuplicated++
	}
	if rf.Corrupt() {
		p.counters().SMPsCorrupted++
		return
	}
	if version != fl.version {
		return
	}
	ack := sim.Event{Kind: evSMPAck, A: int32(index), N: fl.seq, P: ps}
	if derr != nil {
		ack.B = 1
	}
	delay := madWireBytes + oneWayBT(fl.hops) + rf.DelayBT
	p.Engine.PostAfter(delay, p, ack)
	if rf.Duplicate {
		p.Engine.PostAfter(delay+madWireBytes, p, ack)
	}
}

// ack lands a response of the port's open transaction at the
// coordinator.  A torn verdict restarts the transaction from the shadow
// table (bounded, so a hostile link cannot loop the control plane
// forever); a second response for a block already answered (a
// duplicate) is ignored; the final outstanding response commits it.
func (p *InbandProgrammer) ack(ps *portState, tx *txnState, index int, torn bool) {
	if torn {
		if ps.restarts++; ps.restarts > p.Retry.withDefaults().MaxAttempts {
			ps.restarts = 0
			p.counters().Abandoned++
			p.giveUp(ps)
			return
		}
		p.settle(ps)
		p.chain(ps.id, ps.pt)
		return
	}
	for k := range tx.n {
		if tx.blocks[k].Index != index {
			continue
		}
		if tx.acked[k] {
			return
		}
		tx.acked[k] = true
		tx.pending--
		p.Engine.Cancel(tx.timers[k])
		break
	}
	if tx.pending == 0 { // every block was received, so the set applied
		p.commit(ps)
	}
}

// timeout fires when a block's response did not arrive in time: a stale
// one is a no-op, a live one retransmits until attempts run out.
func (p *InbandProgrammer) timeout(ps *portState, tx *txnState, k, attempt int) {
	if tx.acked[k] || tx.attempt[k] != attempt+1 {
		return
	}
	if attempt+1 >= p.Retry.withDefaults().MaxAttempts {
		p.counters().Abandoned++
		p.giveUp(ps)
		return
	}
	p.counters().Retransmits++
	p.sendBlock(ps, tx, k, attempt+1, madWireBytes)
}

// giveUp terminates the port's open transaction without commit: its
// staged state is cancelled, and the port is handed to the give-up
// hook, where the audit path quarantines it and probes its link from
// then on until a read-back re-syncs it from the shadow.
func (p *InbandProgrammer) giveUp(ps *portState) {
	version := ps.tx.version
	p.settle(ps)
	ps.quietFrom = math.MaxInt64
	ps.pt.CancelProgram(version)
	if p.OnGiveUp != nil {
		p.OnGiveUp(ps.id, ps.pt)
	}
}
