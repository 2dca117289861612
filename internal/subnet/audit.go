package subnet

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mad"
	"repro/internal/sim"
)

// The table auditor is the control plane's self-healing path.  When
// reliable delivery gives a port up (retransmits exhausted, deadline
// passed), the port's data-plane table may be stale — the shadow holds
// reservations the active table never learned — and further admissions
// through it would promise bandwidth the arbiter cannot serve.  The
// auditor therefore quarantines the port (admission fails fast with
// ErrHopDown via Controller.Down) and probes it with
// Get(VLArbitrationTable) read-back rounds until the management path
// works again, then re-syncs the active table from the shadow and
// lifts the quarantine.  Ports that stay unreachable past the round
// budget are quarantined permanently: the fabric degrades — rejecting
// admissions on those paths — instead of hanging.

// AuditConfig bounds the audit loop.
type AuditConfig struct {
	// ProbeTimeoutBT is the slack after the last probe's round trip
	// before a round is scored; it must exceed twice the injector's
	// maximum reorder delay or late responses score as losses.
	ProbeTimeoutBT int64
	// MaxRounds bounds both consecutive failed read-back rounds per
	// quarantine episode and heal cycles per port; beyond either the
	// port is quarantined permanently.
	MaxRounds int
	// BackoffBT is the wait before the first round and between rounds,
	// doubling per consecutive failure.
	BackoffBT int64
}

// DefaultAuditConfig retries long enough to ride out short link flaps.
func DefaultAuditConfig() AuditConfig {
	return AuditConfig{ProbeTimeoutBT: 4 * madWireBytes, MaxRounds: 8, BackoffBT: 4 * madWireBytes}
}

// auditState tracks one port's quarantine.
type auditState struct {
	id          admission.PortID
	pt          *core.PortTable
	rounds      int  // consecutive failed rounds this episode
	heals       int  // completed heal cycles over the port's lifetime
	active      bool // a round is scheduled or in flight
	permanent   bool // given up for good
	quarantined bool
}

// Auditor owns the quarantine set and the read-back rounds.  Like the
// programmer, every audit action is a typed event on its engine (the
// fabric's control lane in parallel runs).
type Auditor struct {
	Engine *sim.Engine
	Prog   *InbandProgrammer
	Config AuditConfig

	// Costs accumulates the MAD traffic of the audit probes, separate
	// from the programmer's delta traffic.
	Costs Costs

	state map[admission.PortID]*auditState
}

// Typed-event kinds of the audit path (the Auditor's own handler kind
// space, independent of the programmer's).
const (
	// evAuditRound starts one read-back round; P is the *auditState.
	evAuditRound sim.Kind = iota
	// evAuditProbe lands one Get at the port: block index in A, and
	// the round plus the response path's pre-drawn fate in P
	// (*auditProbe).
	evAuditProbe
	// evAuditResp lands one GetResp back at the SM: block index in A,
	// round and fate in P (*auditProbe).
	evAuditResp
	// evAuditScore scores a finished round; P is the *auditRound.
	evAuditScore
)

// auditRound is one in-flight read-back round: the score its probes
// accumulate and the path cost they share.
type auditRound struct {
	st     *auditState
	got    int
	oneWay int64
}

// auditProbe is one probe of a round, carrying the response path's
// fate from the send-time draw to the response events.
type auditProbe struct {
	rnd *auditRound
	rf  faults.Fate
}

// HandleEvent dispatches the auditor's control events.  It implements
// sim.Handler.
func (a *Auditor) HandleEvent(ev sim.Event) {
	switch ev.Kind {
	case evAuditRound:
		a.round(ev.P.(*auditState))
	case evAuditProbe:
		pr := ev.P.(*auditProbe)
		link := linkKey(pr.rnd.st.id)
		now := a.Engine.Now()
		if pr.rf.Drop || a.Prog.Faults.DownUntil(link, now) > now {
			a.Prog.counters().AcksLost++
			return
		}
		a.Engine.PostAfter(madWireBytes+pr.rnd.oneWay+pr.rf.DelayBT, a,
			sim.Event{Kind: evAuditResp, A: ev.A, P: pr})
	case evAuditResp:
		pr := ev.P.(*auditProbe)
		if a.readBack(pr.rnd.st, int(ev.A)) {
			pr.rnd.got++
		}
	case evAuditScore:
		a.finishRound(ev.P.(*auditRound))
	}
}

// NewAuditor returns an auditor wired to the programmer's give-up hook.
// Point Controller.Down at Quarantined to make admission respect the
// quarantine set.
func NewAuditor(eng *sim.Engine, prog *InbandProgrammer, cfg AuditConfig) *Auditor {
	a := &Auditor{Engine: eng, Prog: prog, Config: cfg, state: make(map[admission.PortID]*auditState)}
	prog.OnGiveUp = a.portGaveUp
	return a
}

// Quarantined reports whether a port is currently out of service; it
// has the signature admission.Controller.Down expects.
func (a *Auditor) Quarantined(id admission.PortID) bool {
	st := a.state[id]
	return st != nil && st.quarantined
}

// AuditsPending reports whether any audit round is still scheduled or
// in flight (experiments assert the audit path, too, terminates).
func (a *Auditor) AuditsPending() bool {
	for _, st := range a.state {
		if st.active {
			return true
		}
	}
	return false
}

// portGaveUp is the programmer's give-up hook: quarantine the port and
// start (or continue) its audit.
func (a *Auditor) portGaveUp(id admission.PortID, pt *core.PortTable) {
	st := a.state[id]
	if st == nil {
		st = &auditState{id: id, pt: pt}
		a.state[id] = st
	}
	if !st.quarantined {
		st.quarantined = true
		a.Prog.counters().QuarantinedHops++
	}
	if st.active || st.permanent {
		return
	}
	st.active = true
	st.rounds = 0
	a.Engine.PostAfter(a.Config.BackoffBT, a, sim.Event{Kind: evAuditRound, P: st})
}

// round sends one Get(VLArbitrationTable) read-back: every block of the
// port's active high table is requested over the management path, each
// probe and each response drawing its own fate from the injector.  The
// round succeeds only when all blocks come back and decode to exactly
// the port's active content — a reachable, untorn port.
func (a *Auditor) round(st *auditState) {
	if st.permanent {
		st.active = false
		return
	}
	a.Prog.counters().AuditRounds++
	link := linkKey(st.id)
	hops := 1
	if a.Prog.Hops != nil {
		hops = a.Prog.Hops(st.id)
	}
	oneWay := int64(hops) * (madWireBytes + hopLatencyBT)
	now := a.Engine.Now()
	inj := a.Prog.Faults
	rnd := &auditRound{st: st, oneWay: oneWay}
	var lastArrive int64
	for b := 0; b < core.NumHighBlocks; b++ {
		a.Costs.addMAD(hops)
		a.Prog.noteSend(st.id)
		serialize := int64(b+1) * madWireBytes
		ff := inj.SMPFate(link)
		if ff.Drop || inj.DownUntil(link, now) > now {
			a.Prog.counters().SMPsDropped++
			continue
		}
		// The Get reaches the port; its GetResp carries the active
		// block back, subject to the return path's own fate.  Down
		// windows are re-checked at response time — a flap can start
		// mid-round trip.
		rf := inj.SMPFate(link)
		arriveAt := serialize + oneWay
		a.Engine.PostAfter(arriveAt, a,
			sim.Event{Kind: evAuditProbe, A: int32(b), P: &auditProbe{rnd: rnd, rf: rf}})
		if end := arriveAt + madWireBytes + oneWay + rf.DelayBT; end > lastArrive {
			lastArrive = end
		}
	}
	a.Engine.PostAfter(lastArrive+a.Config.ProbeTimeoutBT, a,
		sim.Event{Kind: evAuditScore, P: rnd})
}

// readBack scores one GetResp: the active block travels in its real
// wire encoding and must decode back to exactly the port's current
// active content.
func (a *Auditor) readBack(st *auditState, block int) bool {
	lo := block * core.BlockEntries
	active := st.pt.Active()
	want := active.High[lo : lo+core.BlockEntries]
	var wire [mad.Size]byte
	if err := mad.EncodeHighBlock(&wire, mad.MethodGetResp, active.Version(), block, core.NumHighBlocks, want); err != nil {
		panic(fmt.Sprintf("subnet: audit read-back of %v: %v", st.id, err))
	}
	var got [core.BlockEntries]arbtable.Entry
	if _, _, _, err := mad.DecodeHighBlock(wire[:], &got); err != nil {
		return false
	}
	for i, e := range got {
		if e != want[i] {
			return false
		}
	}
	return true
}

// finishRound scores a read-back round and decides the port's fate:
// heal, retry with backoff, or permanent quarantine.
func (a *Auditor) finishRound(rnd *auditRound) {
	st := rnd.st
	st.active = false
	if rnd.got == core.NumHighBlocks {
		if st.heals >= a.Config.MaxRounds {
			// The port keeps bouncing between healed and abandoned; stop
			// feeding it transactions and leave it out of service.
			st.permanent = true
			return
		}
		st.heals++
		st.rounds = 0
		if st.quarantined {
			st.quarantined = false
			a.Prog.counters().AuditRecoveries++
		}
		// Reachable again: re-sync the data plane from the shadow, which
		// kept the intended state through the outage.
		a.Prog.chain(st.id, st.pt)
		return
	}
	st.rounds++
	if st.rounds >= a.Config.MaxRounds {
		st.permanent = true
		return
	}
	st.active = true
	backoff := a.Config.BackoffBT << st.rounds
	// Skip ahead past a known down window rather than burning rounds
	// probing a link the schedule says is dead.
	if until := a.Prog.Faults.DownUntil(linkKey(st.id), a.Engine.Now()); until > a.Engine.Now()+backoff {
		backoff = until - a.Engine.Now()
	}
	a.Engine.PostAfter(backoff, a, sim.Event{Kind: evAuditRound, P: st})
}
