package subnet

import (
	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mad"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// This file is the programmer's reliable delivery mode: the fault-
// injection-aware control plane.  The fire-and-forget path in
// programmer.go assumes a perfect management network; attaching a
// fault injector switches Program to the machinery here, which
//
//   - subjects every SMP and every response to the injector's per-link
//     fate draws (drop, duplicate, corrupt, reorder) and down windows,
//   - acknowledges each block with a response SMP and retransmits after
//     a per-block timeout with exponential backoff, bounded attempts,
//   - bounds each transaction with a wall-clock deadline on the
//     simulated clock, after which the coordinator cancels the port's
//     staged state (byte-identical rollback) and reports the port to
//     the give-up hook (the audit path quarantines it).
//
// Retransmission is safe because the versioned-block protocol is
// idempotent (core.PortTable.DeliverBlock): duplicates and stragglers
// of settled transactions are ignored; contradictions tear the staged
// set down and the coordinator restarts from the authoritative shadow.

// RetryProfile configures reliable delivery.
type RetryProfile struct {
	// AckTimeoutBT is the backoff base: the k-th send of a block waits
	// its serialization plus round-trip time plus AckTimeoutBT<<k before
	// declaring the response lost.
	AckTimeoutBT int64
	// MaxAttempts bounds sends per block, and also transaction restarts
	// after torn aborts; exhaustion abandons the transaction and hands
	// the port to OnGiveUp.
	MaxAttempts int
	// DeadlineBT, when positive, aborts a transaction still open this
	// many byte times after it was programmed: the coordinator cancels
	// the port's staged state and gives the port up.
	DeadlineBT int64
}

// defaultRetryProfile tolerates several consecutive losses per block
// before giving a port up, with a deadline far beyond the worst-case
// retransmission ladder of a healthy fabric.
func defaultRetryProfile() RetryProfile {
	return RetryProfile{AckTimeoutBT: 2 * madWireBytes, MaxAttempts: 5, DeadlineBT: 1 << 18}
}

// Typed-event kinds of the programmer's control plane.  Every control
// action — deliveries, acks, timers — is a typed event on the
// programmer's engine, so the whole control plane can run on a
// coordinator's serialized control lane (no closures pinned to a data
// engine).  The two timer kinds are armed as cancelable timers:
// settling a transaction cancels them outright, so no timer of a
// finished transaction ever fires (they used to linger in the heap as
// no-op closures until their deadline passed).
const (
	// evBlockTimeout declares the response to block A's attempt-B send
	// lost; P is the transaction.
	evBlockTimeout sim.Kind = iota
	// evTxnDeadline aborts the still-open transaction in P at its
	// wall-clock deadline.
	evTxnDeadline
	// evSMPArrive lands a fire-and-forget SMP at its port; P is
	// the *smpDelivery.
	evSMPArrive
	// evSMPDeliver lands a reliable-mode SMP at its port; P is the
	// *smpDelivery, its tx set.
	evSMPDeliver
	// evSMPAck lands a response SMP back at the SM: block index in A,
	// torn verdict in B, transaction version in N, transaction in P.
	evSMPAck
)

// HandleEvent dispatches the programmer's control events.  It
// implements sim.Handler.
func (p *InbandProgrammer) HandleEvent(ev sim.Event) {
	switch ev.Kind {
	case evBlockTimeout:
		tx := ev.P.(*txnState)
		p.timeout(tx.pt, tx, int(ev.A), int(ev.B))
	case evTxnDeadline:
		tx := ev.P.(*txnState)
		if tx.done {
			return
		}
		p.counters().DeadlineAborts++
		p.giveUp(tx.pt, tx)
	case evSMPArrive:
		fl := ev.P.(*smpDelivery)
		p.arrive(fl.id, fl.pt, fl.wire[:])
		p.recycle(fl)
	case evSMPDeliver:
		fl := ev.P.(*smpDelivery)
		p.arriveReliable(fl.pt, fl.tx, fl.wire[:])
		p.recycle(fl)
	case evSMPAck:
		tx := ev.P.(*txnState)
		p.ack(tx.pt, tx, uint64(ev.N), int(ev.A), ev.B != 0)
	}
}

// txnState is the coordinator's view of one in-flight reliable
// transaction.
type txnState struct {
	id      admission.PortID
	pt      *core.PortTable
	version uint64
	hops    int
	delta   core.Delta // owns the blocks
	wires   [core.NumHighBlocks][mad.Size]byte
	acked   [core.NumHighBlocks]bool
	attempt [core.NumHighBlocks]int // sends so far, per block; timeouts of superseded sends are stale
	pending int                     // blocks not yet acknowledged
	done    bool                    // completed, torn down, or given up

	timers   [core.NumHighBlocks]sim.Timer // response timeout per block (latest send)
	deadline sim.Timer                     // transaction deadline, when armed
}

// settle marks a transaction finished and cancels its outstanding
// timers — the per-block response timeouts and the deadline.  Canceling
// an already-fired or never-armed timer is a no-op, so settle is safe
// from every termination path (commit, torn abort, give-up,
// supersession).
func (p *InbandProgrammer) settle(tx *txnState) {
	tx.done = true
	for i := range tx.timers {
		p.Engine.Cancel(tx.timers[i])
	}
	p.Engine.Cancel(tx.deadline)
}

// linkKey maps an arbitration point to its fault-injector link key.
func linkKey(id admission.PortID) int32 {
	if id.Host >= 0 {
		return faults.HostKey(id.Host)
	}
	return faults.SwitchPortKey(id.Switch, id.Port)
}

// counters returns the control-plane counter sink, self-initializing so
// the reliable path never branches on a missing one.
func (p *InbandProgrammer) counters() *metrics.ControlCounters {
	if p.Counters == nil {
		p.Counters = &metrics.ControlCounters{}
	}
	return p.Counters
}

// OpenTransactions returns the number of reliable transactions still in
// flight.  Experiments assert it reaches zero: every transaction
// terminates by commit, torn restart, or give-up.
func (p *InbandProgrammer) OpenTransactions() int {
	n := 0
	for _, tx := range p.txns {
		if !tx.done {
			n++
		}
	}
	return n
}

// programReliable opens a reliable transaction: every block is
// rendered to its wire form once — before anything else changes, so a
// delta the codec rejects leaves no trace — then sent through the
// injector and tracked until acknowledged.
func (p *InbandProgrammer) programReliable(id admission.PortID, pt *core.PortTable, d core.Delta) error {
	hops := 1
	if p.Hops != nil {
		hops = p.Hops(id)
	}
	n := len(d.Blocks())
	tx := &txnState{id: id, pt: pt, version: d.Version, hops: hops, delta: d, pending: n}
	for k, b := range tx.delta.Blocks() {
		if err := encodeBlock(&tx.wires[k], id, d.Version, n, b); err != nil {
			return err
		}
	}
	if p.txns == nil {
		p.txns = make(map[*core.PortTable]*txnState)
		p.restarts = make(map[*core.PortTable]int)
	}
	if old := p.txns[pt]; old != nil && !old.done {
		// The port accepted a new BeginProgram, which it only does with
		// no transaction open port-side: the old transaction's blocks
		// all landed and its table swapped, but the acks proving it were
		// lost.  The successor supersedes it; its timers are canceled
		// and stragglers still in flight check done and fall dead.
		p.settle(old)
	}
	p.txns[pt] = tx
	for k := 0; k < n; k++ {
		// The SM serializes the initial burst back to back, like the
		// fire-and-forget path.
		p.sendBlock(pt, tx, k, 0, int64(k+1)*madWireBytes)
	}
	if p.Retry.DeadlineBT > 0 {
		tx.deadline = p.Engine.PostTimerAfter(p.Retry.DeadlineBT, p,
			sim.Event{Kind: evTxnDeadline, P: tx})
	}
	return nil
}

// sendBlock transmits one attempt of one block through the injector and
// arms its response timeout.
func (p *InbandProgrammer) sendBlock(pt *core.PortTable, tx *txnState, k, attempt int, serializeBT int64) {
	p.Costs.addMAD(tx.hops)
	p.noteSend(tx.id)
	tx.attempt[k] = attempt + 1
	link := linkKey(tx.id)
	now := p.Engine.Now()
	oneWay := int64(tx.hops) * (madWireBytes + hopLatencyBT)

	// The timeout covers serialization, the round trip and backoff
	// headroom that doubles per attempt.  Re-arming replaces the block's
	// timer handle; acking or settling cancels it.
	timeout := serializeBT + 2*oneWay + p.Retry.AckTimeoutBT<<attempt
	tx.timers[k] = p.Engine.PostTimerAfter(timeout, p,
		sim.Event{Kind: evBlockTimeout, A: int32(k), B: int32(attempt), P: tx})

	fate := p.Faults.SMPFate(link)
	if fate.Drop || p.Faults.DownUntil(link, now) > now {
		p.counters().SMPsDropped++
		return
	}
	// Every flight carries its own copy of the retained wire bytes, so
	// corruption never reaches what a retransmission will send.
	fl := p.newDelivery(tx.id, pt, tx)
	fl.wire = tx.wires[k]
	if fate.Corrupt() {
		fl.wire[fate.CorruptByte%len(fl.wire)] ^= fate.CorruptMask
		p.counters().SMPsCorrupted++
	}
	delay := serializeBT + oneWay + fate.DelayBT
	p.Engine.PostAfter(delay, p, sim.Event{Kind: evSMPDeliver, P: fl})
	if fate.Duplicate {
		p.counters().SMPsDuplicated++
		dup := p.newDelivery(tx.id, pt, tx)
		dup.wire = fl.wire
		p.Engine.PostAfter(delay+madWireBytes, p, sim.Event{Kind: evSMPDeliver, P: dup})
	}
}

// arriveReliable lands one (possibly corrupted) SMP at its port.  A
// packet that no longer parses is discarded silently — the sender's
// timeout recovers.  Parsed blocks go through DeliverBlock, whose
// idempotence rules absorb duplicates and stragglers; the port then
// answers with a response SMP carrying the delivery verdict, subject to
// the return path's own fate draw.
func (p *InbandProgrammer) arriveReliable(pt *core.PortTable, tx *txnState, wire []byte) {
	var blk [core.BlockEntries]arbtable.Entry
	version, index, total, err := mad.DecodeHighBlock(wire, &blk)
	if err != nil {
		return
	}
	_, derr := pt.DeliverBlock(version, index, total, blk)
	torn := derr != nil

	link := linkKey(tx.id)
	now := p.Engine.Now()
	rf := p.Faults.SMPFate(link)
	if rf.Drop || p.Faults.DownUntil(link, now) > now {
		p.counters().AcksLost++
		return
	}
	oneWay := int64(tx.hops) * (madWireBytes + hopLatencyBT)
	ack := sim.Event{Kind: evSMPAck, A: int32(index), N: int64(version), P: tx}
	if torn {
		ack.B = 1
	}
	p.Engine.PostAfter(madWireBytes+oneWay+rf.DelayBT, p, ack)
}

// ack lands a response SMP at the coordinator.  Responses of settled or
// foreign transactions are ignored; a torn verdict restarts the
// transaction from the shadow table (bounded); the final outstanding
// ack completes the transaction and chains the next one if the shadow
// moved on meanwhile.
func (p *InbandProgrammer) ack(pt *core.PortTable, tx *txnState, version uint64, index int, torn bool) {
	if tx.done || version != tx.version {
		return
	}
	if torn {
		// The port discarded its staged state; this transaction cannot
		// complete.  The shadow is still authoritative: restart, bounded
		// so a hostile link cannot loop the control plane forever.
		p.settle(tx)
		delete(p.txns, pt)
		p.restarts[pt]++
		if p.restarts[pt] > p.Retry.MaxAttempts {
			p.restarts[pt] = 0
			p.counters().Abandoned++
			p.giveUp(pt, tx)
			return
		}
		p.chain(tx.id, pt)
		return
	}
	for k, b := range tx.delta.Blocks() {
		if b.Index != index || tx.acked[k] {
			continue
		}
		tx.acked[k] = true
		tx.pending--
		p.Engine.Cancel(tx.timers[k])
		break
	}
	if tx.pending == 0 {
		// Every block was received at least once, so the port applied
		// the set when the last distinct block arrived (even if the
		// "applied" response itself was lost and a retransmitted
		// duplicate carried this ack).
		p.settle(tx)
		delete(p.txns, pt)
		p.restarts[pt] = 0
		p.chain(tx.id, pt)
	}
}

// timeout fires when a block's response did not arrive in time.  Stale
// timeouts — block acked, transaction settled, or a newer send already
// armed — are no-ops; live ones retransmit until attempts run out, then
// abandon the transaction.
func (p *InbandProgrammer) timeout(pt *core.PortTable, tx *txnState, k, attempt int) {
	if tx.done || tx.acked[k] || tx.attempt[k] != attempt+1 {
		return
	}
	if attempt+1 >= p.Retry.MaxAttempts {
		p.counters().Abandoned++
		p.giveUp(pt, tx)
		return
	}
	p.counters().Retransmits++
	p.sendBlock(pt, tx, k, attempt+1, madWireBytes)
}

// giveUp terminates a transaction without commit: the port's staged
// state is cancelled (its active table stays byte-identical to the
// pre-transaction state) and the port is handed to the give-up hook,
// where the audit path quarantines it.  The shadow table keeps the
// intended state; a later successful audit re-syncs the port from it.
func (p *InbandProgrammer) giveUp(pt *core.PortTable, tx *txnState) {
	p.settle(tx)
	delete(p.txns, pt)
	pt.CancelProgram(tx.version)
	if p.OnGiveUp != nil {
		p.OnGiveUp(tx.id, pt)
	}
}
