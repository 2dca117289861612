package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/admission"
	"repro/internal/fabric"
	"repro/internal/routing/cdg"
	"repro/internal/sl"
	"repro/internal/traffic"
)

// releasesPerRefusal is how many random live connections the closed
// loop tears down when an admission is refused.  It holds the tables
// just under the 80% reservation cap, where bit-reversal placement and
// defragmentation have work to do.
const releasesPerRefusal = 4

// admitFillPerHost sizes the set-up fill: that many requests per host,
// enough to take every host port to its reservation cap.  A fixed count
// (not Controller.Fill's "until 40 refusals in a row", whose length
// swung setup_s between 0.13 and 0.25 s over ten seeds) keeps setup_s a
// function of the code.
const admitFillPerHost = 128

// admitRunner is the out-of-band closed loop: one caller, no engine, no
// MADs.  Each step offers a fixed number of requests.
type admitRunner struct {
	cs     *fabric.ControlState
	src    *traffic.Source
	rng    *rand.Rand
	live   []*admission.Conn
	calls  int
	traced bool

	admitted, refused, released int
	freeButRejected             int
	baseMoves                   int
	errs                        []error

	// admitNS and releaseNS, when non-nil, receive every call's host
	// time (the admission latency probe).
	admitNS, releaseNS *[]float64
}

func setupAdmit(s spec, seed int64, window int64, tr *tracer, traced bool) (*admitRunner, error) {
	topo, err := fatTree(s.k, tr)
	if err != nil {
		return nil, err
	}
	id := tr.begin("fabric.BuildControl")
	cs, err := fabric.BuildControl(fabric.DefaultConfig(topo.NumSwitches, payloadBytes, seed), topo)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("cdg.Verify")
	_, err = cdg.Verify(topo, cs.Routes)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	r := &admitRunner{
		cs:     cs,
		src:    traffic.NewSource(sl.DefaultLevels, topo.NumHosts(), seed+1),
		rng:    rand.New(rand.NewSource(seed + 3)),
		calls:  int(window),
		traced: traced,
	}
	id = tr.begin("admission.fill")
	for i := 0; i < admitFillPerHost*topo.NumHosts(); i++ {
		if conn, err := cs.Adm.Admit(r.src.Next()); err == nil {
			r.live = append(r.live, conn)
		}
	}
	tr.end(id)
	if len(r.live) == 0 {
		return nil, fmt.Errorf("fill admitted no connection")
	}
	return r, nil
}

// step offers r.calls requests and returns the Admit and Release calls
// that took.
func (r *admitRunner) step() float64 {
	adm := r.cs.Adm
	released := r.released
	for i := 0; i < r.calls; i++ {
		req := r.src.Next()
		t0 := r.clock()
		conn, err := adm.Admit(req)
		r.observe(r.admitNS, t0)
		if err == nil {
			r.admitted++
			r.live = append(r.live, conn)
			continue
		}
		r.refused++
		if errors.Is(err, admission.ErrHopBusy) || errors.Is(err, admission.ErrHopDown) {
			r.errs = append(r.errs, err) // nothing programs or quarantines here
		}
		if r.traced && freeButRejected(adm, r.cs.Routes, r.cs.Mapping, req) {
			r.freeButRejected++
		}
		for j := 0; j < releasesPerRefusal && len(r.live) > 0; j++ {
			k := r.rng.Intn(len(r.live))
			victim := r.live[k]
			r.live[k] = r.live[len(r.live)-1]
			r.live = r.live[:len(r.live)-1]
			t0 := r.clock()
			err := adm.Release(victim)
			r.observe(r.releaseNS, t0)
			r.released++
			if err != nil {
				r.errs = append(r.errs, err)
			}
		}
	}
	return float64(r.calls + r.released - released)
}

// clock and observe time single calls only while a latency probe
// listens, so the workload's own loop never reads the clock.
func (r *admitRunner) clock() time.Time {
	if r.admitNS == nil {
		return time.Time{}
	}
	return time.Now()
}

func (r *admitRunner) observe(into *[]float64, t0 time.Time) {
	if into != nil {
		*into = append(*into, float64(time.Since(t0).Nanoseconds()))
	}
}

func (r *admitRunner) beginTimed() {
	r.admitted, r.refused, r.released, r.freeButRejected = 0, 0, 0, 0
	r.baseMoves = tableMoves(r.cs.Adm)
}

func (r *admitRunner) check(*pass) {}

func (r *admitRunner) endTimed(p *pass) {
	p.accepted, p.offered = float64(r.admitted), float64(r.admitted+r.refused)
	p.attempted += int64(r.admitted + r.refused + r.released)
	c := p.counts
	c["admission.admitted"] = float64(r.admitted)
	c["admission.rejected_capacity"] = float64(r.refused)
	c["core.defrag_moves_per_release"] = ratio(float64(tableMoves(r.cs.Adm)-r.baseMoves), float64(r.released))
	c["core.free_but_rejected"] = float64(r.freeButRejected)
}

func (r *admitRunner) finish(p *pass) {
	for _, err := range r.errs {
		p.fail(1, "unexpected admission error: %v", err)
	}
	p.counts["subnet.open_txn_at_end"] = float64(checkTables(p, r.cs.Adm))
}
