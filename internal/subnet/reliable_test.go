package subnet

import (
	"testing"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/topology"
)

func newReliableFixture(t *testing.T, cfg faults.Config) (*sim.Engine, *InbandProgrammer, *core.PortTable) {
	t.Helper()
	topo, err := topology.Generate(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(topo)
	if _, err := m.Discover(); err != nil {
		t.Fatal(err)
	}
	eng := &sim.Engine{}
	prog := NewInbandProgrammer(eng, m)
	prog.Faults = faults.New(cfg)
	return eng, prog, core.NewPortTable(arbtable.New(arbtable.UnlimitedHigh))
}

func programOnce(t *testing.T, prog *InbandProgrammer, pt *core.PortTable) admission.PortID {
	t.Helper()
	if _, err := pt.Reserve(2, 4, 300); err != nil {
		t.Fatal(err)
	}
	d, err := pt.BeginProgram()
	if err != nil {
		t.Fatal(err)
	}
	id := admission.HostPortID(5)
	if err := prog.Program(id, pt, d); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestReliableRecoversFromDrops: with a lossy management network, the
// programmer retransmits until every block is delivered and the port
// converges — exactly one swap, no torn aborts.
func TestReliableRecoversFromDrops(t *testing.T) {
	eng, prog, pt := newReliableFixture(t, faults.Config{Seed: 7, Drop: 0.4})
	prog.Retry.MaxAttempts = 12     // survive a long unlucky streak
	prog.Retry.DeadlineBT = 1 << 22 // ...and give its backoff ladder room before the deadline
	programOnce(t, prog, pt)
	eng.RunWhile(func() bool { return true })

	if pt.Programming() || pt.Dirty() {
		t.Fatalf("port did not converge (programming=%v dirty=%v)", pt.Programming(), pt.Dirty())
	}
	if pt.Active().High != pt.Allocator().Table().High {
		t.Error("active table differs from shadow after reliable delivery")
	}
	if n := prog.OpenTransactions(); n != 0 {
		t.Errorf("%d transactions still open after drain", n)
	}
	c := prog.counters()
	if c.SMPsDropped == 0 || c.Retransmits == 0 {
		t.Errorf("expected drops and retransmits on a 40%% lossy link, got %+v", *c)
	}
	if c.Abandoned != 0 || c.DeadlineAborts != 0 {
		t.Errorf("transaction should have completed, got %+v", *c)
	}
}

// TestReliableDuplicatedCommitIdempotent: a link that duplicates every
// SMP must not tear the transaction — the versioned-block protocol
// absorbs the copies and the port swaps exactly once.
func TestReliableDuplicatedCommitIdempotent(t *testing.T) {
	eng, prog, pt := newReliableFixture(t, faults.Config{Seed: 3, Duplicate: 1.0})
	programOnce(t, prog, pt)
	eng.RunWhile(func() bool { return true })

	if pt.Programming() || pt.Dirty() {
		t.Fatalf("port did not converge (programming=%v dirty=%v)", pt.Programming(), pt.Dirty())
	}
	if s := pt.Stats(); s.Swaps != 1 || s.TornAborts != 0 {
		t.Errorf("stats = %+v, want exactly one clean swap", s)
	}
	if c := prog.counters(); c.SMPsDuplicated == 0 {
		t.Errorf("duplicate rate 1.0 dealt no duplicates: %+v", *c)
	}
}

// TestReliableCorruptionRecovers: corrupted SMPs are discarded or torn
// down at the port, never applied; retransmission still converges the
// port to the shadow.
func TestReliableCorruptionRecovers(t *testing.T) {
	eng, prog, pt := newReliableFixture(t, faults.Config{Seed: 11, Corrupt: 0.3})
	prog.Retry.MaxAttempts = 12
	programOnce(t, prog, pt)
	eng.RunWhile(func() bool { return true })

	if pt.Programming() || pt.Dirty() {
		t.Fatalf("port did not converge (programming=%v dirty=%v)", pt.Programming(), pt.Dirty())
	}
	if pt.Active().High != pt.Allocator().Table().High {
		t.Error("active table differs from shadow after corruption recovery")
	}
	if c := prog.counters(); c.SMPsCorrupted == 0 {
		t.Errorf("corrupt rate 0.3 dealt no corruptions: %+v", *c)
	}
}

// TestReliableDeadlineAbortsAndRollsBack: a port whose link is dead
// cannot hang the control plane: the transaction deadline fires, the
// staged state is cancelled, the active table stays byte-identical to
// its pre-transaction state, and the give-up hook reports the port.
func TestReliableDeadlineAbortsAndRollsBack(t *testing.T) {
	eng, prog, pt := newReliableFixture(t, faults.Config{Seed: 1, Drop: 1.0})
	prog.Retry.MaxAttempts = 1000 // let the deadline, not attempt exhaustion, fire
	prog.Retry.DeadlineBT = 50_000
	var gaveUp []admission.PortID
	prog.OnGiveUp = func(id admission.PortID, _ *core.PortTable) { gaveUp = append(gaveUp, id) }

	before := pt.Active().High
	id := programOnce(t, prog, pt)
	eng.RunWhile(func() bool { return eng.Now() < 2*prog.Retry.DeadlineBT })

	c := prog.counters()
	if c.DeadlineAborts != 1 {
		t.Fatalf("DeadlineAborts = %d, want 1 (counters %+v)", c.DeadlineAborts, *c)
	}
	if n := prog.OpenTransactions(); n != 0 {
		t.Errorf("%d transactions still open after the deadline", n)
	}
	if pt.Programming() {
		t.Error("port still mid-reprogram after deadline abort")
	}
	if pt.Active().High != before {
		t.Error("deadline abort did not roll the active table back byte-identically")
	}
	if !pt.Dirty() {
		t.Error("shadow should still hold the unprogrammed reservation")
	}
	if len(gaveUp) != 1 || gaveUp[0] != id {
		t.Errorf("give-up hook saw %v, want [%v]", gaveUp, id)
	}
}

// TestReliableTimersCanceledOnCompletion: settling a transaction must
// cancel its retransmission and deadline timers outright.  Before the
// typed-event conversion the closures lingered in the heap as armed
// no-ops — a completed transaction kept its deadline event pending for
// up to DeadlineBT byte times, and a retransmit timeout of a finished
// transaction could still fire.  On a perfect network the transaction
// flies whole and arms no timer at all; on a duplicating one its blocks
// fly alone, each with its timer, and the responses cancel them.
func TestReliableTimersCanceledOnCompletion(t *testing.T) {
	for _, tc := range []struct {
		cfg    faults.Config
		timers bool
	}{
		{faults.Config{Seed: 1}, false},
		{faults.Config{Seed: 1, Duplicate: 1}, true},
	} {
		eng, prog, pt := newReliableFixture(t, tc.cfg)
		programOnce(t, prog, pt)
		eng.RunWhile(func() bool { return prog.OpenTransactions() > 0 })

		if n := prog.OpenTransactions(); n != 0 {
			t.Fatalf("%+v: %d transactions still open", tc.cfg, n)
		}
		if p := eng.Pending(); !tc.timers && p != 0 {
			t.Fatalf("%+v: %d events still pending after the transaction settled", tc.cfg, p)
		}
		// Every block's timer and the deadline are canceled, none fired;
		// only the duplicates and their responses are left to land.
		eng.RunWhile(func() bool { return true })
		want := int64(0)
		if tc.timers {
			want = int64(prog.Costs.MADs) + 1
		}
		if s := eng.Stats(); s.Canceled != want {
			t.Errorf("%+v: settling canceled %d timers, want %d", tc.cfg, s.Canceled, want)
		}
		c := prog.counters()
		if c.Retransmits != 0 || c.DeadlineAborts != 0 {
			t.Errorf("%+v: lossless network saw recovery activity: %+v", tc.cfg, *c)
		}
	}
}

// TestReliableTimersCanceledOnGiveUp: a transaction abandoned by
// retransmit exhaustion must also cancel its deadline timer — the
// deadline of a port already given up must never fire (it would count
// a second abort against a settled transaction).
func TestReliableTimersCanceledOnGiveUp(t *testing.T) {
	eng, prog, pt := newReliableFixture(t, faults.Config{Seed: 2, Drop: 1.0})
	prog.Retry.DeadlineBT = 1 << 30 // give-up races far ahead of the deadline
	programOnce(t, prog, pt)
	eng.RunWhile(func() bool { return true })

	c := prog.counters()
	if c.Abandoned != 1 {
		t.Fatalf("Abandoned = %d, want 1 (counters %+v)", c.Abandoned, *c)
	}
	if c.DeadlineAborts != 0 {
		t.Errorf("deadline fired on a transaction already given up: %+v", *c)
	}
	if p := eng.Pending(); p != 0 {
		t.Fatalf("%d events still pending after give-up; the deadline timer leaked", p)
	}
}

// TestAuditorHealsAfterFlap: a link-down window makes the programmer
// abandon the port and quarantine it; once the window passes, the audit
// read-back succeeds, the quarantine lifts, and the chained reprogram
// converges active to shadow.
func TestAuditorHealsAfterFlap(t *testing.T) {
	eng, prog, pt := newReliableFixture(t, faults.Config{Seed: 5})
	aud := NewAuditor(eng, prog)

	id := admission.HostPortID(5)
	prog.Faults.AddLinkDown(linkKey(id), 0, 200_000)

	programOnce(t, prog, pt)
	eng.RunWhile(func() bool { return true })

	c := prog.counters()
	if c.QuarantinedHops != 1 || c.AuditRecoveries != 1 {
		t.Fatalf("quarantines/recoveries = %d/%d, want 1/1 (counters %+v)",
			c.QuarantinedHops, c.AuditRecoveries, *c)
	}
	if aud.Quarantined(id) {
		t.Error("port still quarantined after the flap ended")
	}
	if pt.Programming() || pt.Dirty() {
		t.Fatalf("audit heal did not converge the port (programming=%v dirty=%v)",
			pt.Programming(), pt.Dirty())
	}
	if pt.Active().High != pt.Allocator().Table().High {
		t.Error("active table differs from shadow after audit heal")
	}
	if eng.Now() < 200_000 {
		t.Errorf("drain ended at t=%d, inside the down window", eng.Now())
	}
}

// TestAuditorPermanentQuarantine: a port that never comes back — here a
// link losing every packet, which no down-window skip-ahead can wait
// out — is quarantined permanently after the round budget, and
// crucially the simulation still drains (the audit loop terminates).
func TestAuditorPermanentQuarantine(t *testing.T) {
	eng, prog, pt := newReliableFixture(t, faults.Config{Seed: 9, Drop: 1.0})
	aud := NewAuditor(eng, prog)

	id := admission.HostPortID(5)

	programOnce(t, prog, pt)
	eng.RunWhile(func() bool { return true })

	if !aud.Quarantined(id) {
		t.Fatal("unreachable port is not quarantined")
	}
	if aud.AuditsPending() {
		t.Fatal("audit loop still pending after drain")
	}
	c := prog.counters()
	if c.AuditRecoveries != 0 {
		t.Errorf("recovered a port that never came back: %+v", *c)
	}
	if c.AuditRounds < auditMaxRounds {
		t.Errorf("AuditRounds = %d, want >= %d", c.AuditRounds, auditMaxRounds)
	}
	st := aud.state[id]
	if st == nil || !st.permanent {
		t.Error("port should be permanently quarantined")
	}
}

// TestEveryDealtFateActs: on a lossy link with no down window, every
// fate the injector deals — to an SMP or to its response — acts, and the
// control counters say so: each drop is a dropped SMP or a lost
// response, each corruption a discarded or torn packet, each duplicate a
// second copy.  The transactions still converge.
func TestEveryDealtFateActs(t *testing.T) {
	eng, prog, pt := newReliableFixture(t, faults.Config{Seed: 21, Drop: 0.1, Corrupt: 0.25, Duplicate: 0.3})
	prog.Retry.MaxAttempts = 20
	prog.Retry.DeadlineBT = 1 << 24
	for range 6 {
		programOnce(t, prog, pt)
		eng.RunWhile(func() bool { return true })
		if pt.Programming() || pt.Dirty() {
			t.Fatalf("port did not converge (programming=%v dirty=%v)", pt.Programming(), pt.Dirty())
		}
	}
	c, s := prog.counters(), prog.Faults.Stats()
	switch {
	case c.SMPsDropped+c.AcksLost != s.Drops:
		t.Errorf("%d SMPs dropped and %d responses lost, injector dealt %d drops", c.SMPsDropped, c.AcksLost, s.Drops)
	case c.SMPsCorrupted != s.Corruptions:
		t.Errorf("%d packets corrupted, injector dealt %d corruptions", c.SMPsCorrupted, s.Corruptions)
	case c.SMPsDuplicated != s.Duplicates:
		t.Errorf("%d packets duplicated, injector dealt %d duplicates", c.SMPsDuplicated, s.Duplicates)
	case c.AcksLost == 0 || c.SMPsCorrupted == 0 || c.SMPsDuplicated == 0:
		t.Errorf("the link dealt too few faults to show anything: %+v", *c)
	}
}

// TestAuditorCountsDuplicateResponsesOnce: on a link that duplicates
// every packet, each Get of a read-back round lands twice and each
// GetResp comes back twice; a round scores each block once, so the
// quarantined port heals after the flap instead of failing every round.
func TestAuditorCountsDuplicateResponsesOnce(t *testing.T) {
	eng, prog, pt := newReliableFixture(t, faults.Config{Seed: 5, Duplicate: 1.0})
	aud := NewAuditor(eng, prog)
	id := admission.HostPortID(5)
	prog.Faults.AddLinkDown(linkKey(id), 0, 200_000)

	programOnce(t, prog, pt)
	eng.RunWhile(func() bool { return true })

	c := prog.counters()
	if c.QuarantinedHops != 1 || c.AuditRecoveries != 1 {
		t.Fatalf("quarantines/recoveries = %d/%d, want 1/1 (counters %+v)", c.QuarantinedHops, c.AuditRecoveries, *c)
	}
	if aud.Quarantined(id) || pt.Programming() || pt.Dirty() {
		t.Fatalf("port not healed: quarantined %v, programming %v, dirty %v", aud.Quarantined(id), pt.Programming(), pt.Dirty())
	}
}
