package main

import (
	"errors"
	"math/rand"

	"repro/internal/admission"
	"repro/internal/sl"
	"repro/internal/subnet"
	"repro/internal/traffic"
)

// Churn parameters: an open loop in simulated time (arrivals keep
// their schedule whatever the fabric does), run as a batch on the host.
const (
	churnMeanGapBT   = 512
	churnMeanHoldBT  = 65_536
	churnBackgroundM = 1  // best-effort Mbps per host
	churnHoldCap     = 20 // the drain gives up this many mean holds after the last arrival...

	// ...plus two packet gaps of the slowest connection the source can
	// draw (0.5 Mbps): ReleaseConnection polls for a flow's in-flight
	// packets once per packet gap, so a slow flow's release can lag its
	// hold by that much.
	churnReleaseLagBT = 2 * payloadBytes * sl.LinkMbps * 2

	// churnStartDelayBT is how long an admitted source waits before it
	// sends: the worst-case flight of the Set(VLArbitrationTable) SMPs
	// that program its path (4 blocks serialized, 7 hops out).  A source
	// that sends before its table entries are active has its first
	// packets wait for them and miss their deadline.
	churnStartDelayBT = 4096
)

// churnRunner is connection churn on a live fabric: Poisson arrivals,
// exponential holds, every admission through AdmitWithRetry and every
// table delta programmed in-band as SMPs on the control lane.  It is
// this benchmark's own driver, not experiments.Churn, whose release
// poll can fail to terminate (see README, "Known defects").
type churnRunner struct {
	*fabricRunner
	prog *subnet.InbandProgrammer
	src  *traffic.Source
	rng  *rand.Rand

	stopped     bool // no further arrivals
	lastArrival int64
	outstanding int // lifecycles not yet resolved: admitting, live or releasing

	// Lifecycle counts cover the whole run, warm-up and drain included:
	// a connection that arrives in one window is admitted, programmed
	// and released in later ones, so any cut in time would set the MADs
	// and outcomes of one population against the arrivals of another.
	arrivals, admittedN, refusedCap, refusedBusy, releasedN int
	latencyBT                                               int64
}

func setupChurn(s spec, seed int64, window int64, tr *tracer, traced bool) (*churnRunner, error) {
	fr, err := setupFabric(s, seed, window, tr, traced)
	if err != nil {
		return nil, err
	}
	net := fr.net
	for _, be := range traffic.BestEffortBackground(net.Topo.NumHosts(), churnBackgroundM, seed+2) {
		net.AddBestEffort(be)
	}
	m := subnet.NewManager(net.Topo)
	m.Routes = net.Routes
	r := &churnRunner{
		fabricRunner: fr,
		prog:         subnet.NewInbandProgrammer(net.Ctrl, m),
		src:          traffic.NewSource(sl.DefaultLevels, net.Topo.NumHosts(), seed+1),
		rng:          rand.New(rand.NewSource(seed)),
	}
	net.Adm.SetProgrammer(r.prog)

	id := tr.begin("fabric.Start")
	net.Start()
	net.Ctrl.After(r.gap(), r.arrive)
	tr.end(id)
	return r, nil
}

func (r *churnRunner) gap() int64  { return 1 + int64(r.rng.ExpFloat64()*churnMeanGapBT) }
func (r *churnRunner) hold() int64 { return 1 + int64(r.rng.ExpFloat64()*churnMeanHoldBT) }

// arrive starts one connection lifecycle and schedules the next
// arrival.  Every variate is drawn here, in event order on one engine,
// so the run is a function of the seed.
func (r *churnRunner) arrive() {
	if r.stopped {
		return
	}
	net, eng := r.net, r.net.Ctrl
	at := eng.Now()
	r.lastArrival = at
	req, hold := r.src.Next(), r.hold()
	eng.After(r.gap(), r.arrive)
	r.arrivals++
	r.outstanding++
	net.Adm.AdmitWithRetry(eng, req, admission.DefaultRetryPolicy(), func(conn *admission.Conn, err error) {
		if err != nil {
			if errors.Is(err, admission.ErrHopBusy) {
				r.refusedBusy++
			} else {
				r.refusedCap++
				if r.traced && freeButRejected(net.Adm, net.Routes, net.Mapping, req) {
					r.freeButRejected++
				}
			}
			r.outstanding--
			return
		}
		r.admittedN++
		r.latencyBT += eng.Now() - at
		fl := net.AddConnection(conn)
		eng.After(churnStartDelayBT, func() { net.StartFlow(fl) })
		eng.After(churnStartDelayBT+hold, func() {
			net.ReleaseConnection(conn, fl, func() {
				r.releasedN++
				r.outstanding--
			})
		})
	})
}

// step simulates one window and returns the connection lifecycles that
// arrived in it.
func (r *churnRunner) step() float64 {
	before := r.arrivals
	r.net.Run(r.net.Now() + r.window)
	return float64(r.arrivals - before)
}

func (r *churnRunner) endTimed(p *pass) {
	r.stopped = true
	r.fabricRunner.endTimed(p)
}

// finish resolves every open lifecycle under the cap, then drains the
// fabric.  The lifecycle counts are final only here: connections
// offered in the last windows are still live when the windows end.
func (r *churnRunner) finish(p *pass) {
	net := r.net
	limit := r.lastArrival + churnHoldCap*churnMeanHoldBT + churnReleaseLagBT
	net.RunWhile(func() bool { return r.outstanding > 0 && net.Now() < limit })
	if r.outstanding > 0 {
		p.fail(int64(r.outstanding), "%d lifecycles unresolved %d mean holds after the last arrival", r.outstanding, churnHoldCap)
	}
	p.attempted += int64(r.arrivals)

	c := p.counts
	resolved := r.admittedN + r.refusedCap + r.refusedBusy
	p.accepted, p.offered = float64(r.admittedN), float64(resolved)
	mads := float64(r.prog.Costs.MADs)
	c["admission.admitted"] = float64(r.admittedN)
	c["admission.rejected_capacity"] = float64(r.refusedCap)
	c["admission.rejected_busy"] = float64(r.refusedBusy)
	c["admission.admit_latency_bt_mean"] = ratio(float64(r.latencyBT), float64(r.admittedN))
	c["core.defrag_moves_per_release"] = ratio(float64(tableMoves(r.net.Adm)), float64(r.releasedN))
	c["core.free_but_rejected"] = float64(r.freeButRejected)
	c["subnet.mads"] = mads
	c["subnet.mads_per_lifecycle"] = ratio(mads, float64(r.arrivals))
	c["subnet.program_time_bt"] = float64(r.prog.Costs.TimeBT)

	r.fabricRunner.finish(p)
	if live := net.Adm.Live(); live != 0 {
		p.fail(int64(live), "%d connections still live after the drain", live)
	}
}
