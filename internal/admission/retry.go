package admission

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/traffic"
)

// The busy-hop retry loop of AdmitWithRetry: up to retryAttempts tries,
// the k-th retry waiting retryBackoffBT<<(k-1) byte times (bounded
// exponential backoff on the simulated clock, starting at roughly one
// MAD round trip).
const (
	retryAttempts        = 6
	retryBackoffBT int64 = 1024
)

// RetryPolicy caps the retry loop of AdmitWithRetry in time: when
// DeadlineBT is positive, no retry is scheduled past DeadlineBT byte
// times after the first attempt, even when the backoff schedule alone
// would fit more attempts; zero keeps the attempts-only behaviour.
type RetryPolicy struct {
	DeadlineBT int64
}

// DefaultRetryPolicy suits churn workloads: the attempts alone bound
// the retries.
func DefaultRetryPolicy() RetryPolicy { return RetryPolicy{} }

// AdmitWithRetry attempts an admission on the simulated clock,
// retrying with exponential backoff while the only obstacle is a hop
// whose table program is still in flight (ErrHopBusy).  Any other
// failure is final — including ErrHopDown, since a quarantined hop
// stays down far longer than any backoff horizon.  Giving up (attempts
// exhausted, or the next retry would land past the policy deadline)
// returns the last underlying admission error wrapped with the retry
// history, so errors.Is still matches ErrHopBusy.  done is invoked
// exactly once, from an engine event (or synchronously when the first
// attempt settles the outcome), with the admitted connection or the
// final error.
func (c *Controller) AdmitWithRetry(eng *sim.Engine, req traffic.Request, rp RetryPolicy, done func(*Conn, error)) {
	t := &retryTxn{c: c, eng: eng, req: req, rp: rp, done: done, start: eng.Now()}
	t.attempt(0)
}

// evAdmitRetry is a retryTxn's backoff-retry event; the attempt index
// rides in A.  (Each transaction is its own sim.Handler, so the kind
// space is private per transaction.)
const evAdmitRetry sim.Kind = iota

// retryTxn is one in-flight AdmitWithRetry transaction.  Modeling the
// retry as a typed event on the transaction handler — instead of a
// closure pinned to an engine — lets a sharded fabric run admission
// retries on its serialized control lane.
type retryTxn struct {
	c     *Controller
	eng   *sim.Engine
	req   traffic.Request
	rp    RetryPolicy
	done  func(*Conn, error)
	start int64
}

// HandleEvent implements sim.Handler.
func (t *retryTxn) HandleEvent(ev sim.Event) {
	if ev.Kind == evAdmitRetry {
		t.attempt(int(ev.A))
	}
}

func (t *retryTxn) attempt(k int) {
	conn, err := t.c.Admit(t.req)
	if err == nil || !errors.Is(err, ErrHopBusy) {
		t.done(conn, err)
		return
	}
	if k+1 >= retryAttempts {
		t.done(nil, fmt.Errorf("admission: gave up after %d attempts: %w", k+1, err))
		return
	}
	wait := retryBackoffBT << k
	if t.rp.DeadlineBT > 0 && t.eng.Now()+wait > t.start+t.rp.DeadlineBT {
		t.done(nil, fmt.Errorf("admission: retry deadline (%d bt) exceeded after %d attempts: %w",
			t.rp.DeadlineBT, k+1, err))
		return
	}
	t.eng.PostAfter(wait, t, sim.Event{Kind: evAdmitRetry, A: int32(k + 1)})
}
