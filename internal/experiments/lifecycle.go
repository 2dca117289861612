package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/sl"
	"repro/internal/traffic"
)

// lifecycleHoldCap bounds a lifecycle run: a lifecycle still unresolved
// this many mean holds after the last arrival, plus one packet gap of
// the slowest admitted flow (the release poll's period), is stuck, and
// the run stops with an error naming it.
const lifecycleHoldCap = 20

// lifecycles is one lifecycle run: the churn report, filled in full,
// what a fault rig adds to it, and the driver's state.  runChurn
// returns the report; runFaults copies its fields from it.
type lifecycles struct {
	churnResult
	net *fabric.Network
	sc  Scenario

	rejectedDown, quarantined int

	// Per arrival: its pre-drawn lifecycle, and from its admission
	// until its release completes its connection and flow.
	arrivals []churnArrival
	conns    []*admission.Conn
	flows    []*fabric.Flow

	// outstanding counts lifecycles still in flight: unresolved
	// arrivals plus admitted connections not yet fully released.  The
	// bandwidth sampler stops with the last one.
	outstanding        int
	latSum, slowestIAT int64
	prev               [arbtable.NumVLs]int64
	samples            [][arbtable.NumVLs]int64
	auditErr           error
}

// churnArrival is one pre-drawn connection lifecycle.  Drawing every
// random variate before the simulation starts keeps the rng stream
// independent of event interleaving, which is what makes the run
// reproducible from the seed alone.
type churnArrival struct {
	at   int64
	hold int64
	req  traffic.Request
}

// Event kinds of the lifecycle driver (its own kind space, as a
// sim.Handler's is); A carries the arrival's index.
const (
	evArrive  sim.Kind = iota // arrival A; posts arrival A+1
	evRelease                 // arrival A's hold is over
	evSample                  // per-VL byte-rate sample
)

// runLifecycles runs sc's connection lifecycles on a live fabric:
// every arrival goes through AdmitWithRetry, an admitted connection
// starts its flow and is released after its hold, and every table delta
// travels in-band as SMPs on the control lane.  The driver is a
// sim.Handler on that lane, and each arrival posts the next one.  After
// every admission outcome and every completed release it audits the
// admission invariants, and at the end it audits the whole fabric
// (Network.CheckInvariants) and proves termination (no open
// transaction or audit round) and convergence
// (Controller.CheckConverged).  Any violation, and any lifecycle
// unresolved past the lifecycleHoldCap bound, is an error.
//
// With SMPFaults the run carries a fault rig: an injector dealing SMP
// fates and link flaps to the control and data planes, and the
// self-healing auditor, whose quarantined ports admission refuses
// (ErrHopDown) and the end audit skips.
func runLifecycles(sc Scenario) (*lifecycles, error) {
	r, err := build(sc) // Validate refuses a negative count or time
	if err != nil {
		return nil, err
	}
	for _, path := range []string{"Arrivals", "MeanGapBT", "MeanHoldBT", "SampleBT", "Inband"} {
		if fieldAt(sc, path).IsZero() {
			return nil, refuse(path, "unset: a churn run needs positive counts and times, and in-band programming")
		}
	}
	net, prog, aud := r.Net, r.prog, r.aud

	arrivals := drawChurnArrivals(sc, net.Topo.NumHosts())
	lastArrival := arrivals[len(arrivals)-1].at
	lc := &lifecycles{net: net, sc: sc, arrivals: arrivals, outstanding: len(arrivals),
		conns: make([]*admission.Conn, len(arrivals)), flows: make([]*fabric.Flow, len(arrivals))}
	lc.Switches, lc.Hosts, lc.Seed, lc.Offered = net.Topo.NumSwitches, net.Topo.NumHosts(), sc.Seed, sc.Arrivals
	if sc.SMPFaults {
		drawFlapSchedule(sc, net.Topo, net.Faults, lastArrival)
	}

	eng := net.Ctrl
	eng.Post(arrivals[0].at, lc, sim.Event{Kind: evArrive})
	eng.PostAfter(sc.SampleBT, lc, sim.Event{Kind: evSample})
	limit := func() int64 { return lastArrival + lifecycleHoldCap*sc.MeanHoldBT + lc.slowestIAT }
	net.RunWhile(func() bool { return lc.auditErr == nil && (lc.outstanding == 0 || eng.Now() <= limit()) })
	if lc.auditErr != nil {
		return nil, lc.auditErr
	}
	if lc.outstanding > 0 {
		var stuck []string
		for _, f := range lc.flows {
			if f != nil {
				stuck = append(stuck, fmt.Sprintf("flow %d (host %d->%d, VL %d)", f.ID, f.Src, f.Dst, f.VL))
			}
		}
		return nil, fmt.Errorf("experiments: %d lifecycles unresolved at %d BT, %d mean holds after the last arrival (%d still admitting); unreleased: %s",
			lc.outstanding, eng.Now(), lifecycleHoldCap, lc.outstanding-len(stuck), strings.Join(stuck, ", "))
	}

	// Termination: every transaction settled, every audit round done.
	// Convergence (Controller.CheckConverged): no connection live, and
	// every port the control plane still serves has its active table
	// byte-identical to its shadow.  Quarantined ports are the deliberate
	// exception — their shadow holds state the management network never
	// managed to deliver.
	unterminated := prog.OpenTransactions()
	if aud != nil && aud.AuditsPending() {
		unterminated++
	}
	net.Adm.Ports().Each(func(id admission.PortID, tb *core.PortTable) {
		if aud != nil && aud.Quarantined(id) {
			lc.quarantined++
		}
		lc.TableMoves += tb.Allocator().TotalMoves()
	})
	if err := net.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("lifecycle final @%d: %w", eng.Now(), err)
	}
	if unterminated != 0 {
		return nil, fmt.Errorf("lifecycle end: %d transactions or audits unterminated", unterminated)
	}
	if err := net.Adm.CheckConverged(); err != nil {
		return nil, fmt.Errorf("lifecycle end: %w", err)
	}

	if lc.Admitted > 0 {
		lc.MeanAdmitLatencyBT = float64(lc.latSum) / float64(lc.Admitted)
	}
	lc.ProgramMADs, lc.ProgramTimeBT = prog.Costs.MADs, prog.Costs.TimeBT
	lc.Reconfig = net.ReconfigStats()
	lc.MeanVLRateCoV, lc.MaxVLRateCoV = vlRateCoV(lc.samples)
	lc.EndTimeBT = eng.Now()
	lc.Parallel, lc.Windows = net.Parallel(), net.Windows()
	return lc, nil
}

// HandleEvent implements sim.Handler: the driver's arrivals, releases
// and bandwidth samples.
func (lc *lifecycles) HandleEvent(ev sim.Event) {
	i, eng := int(ev.A), lc.net.Ctrl
	switch ev.Kind {
	case evArrive:
		if i+1 < len(lc.arrivals) {
			eng.Post(lc.arrivals[i+1].at, lc, sim.Event{Kind: evArrive, A: int32(i + 1)})
		}
		lc.net.Adm.AdmitWithRetry(eng, lc.arrivals[i].req, lc.sc.Retry, func(conn *admission.Conn, err error) {
			lc.admitDone(i, conn, err)
		})
	case evRelease:
		lc.net.ReleaseConnection(lc.conns[i], lc.flows[i], func() {
			lc.Released++
			lc.outstanding--
			lc.conns[i], lc.flows[i] = nil, nil
			lc.audit("release")
		})
	case evSample:
		var rates [arbtable.NumVLs]int64
		for vl := range rates {
			cur := lc.net.VLBytes(vl)
			rates[vl], lc.prev[vl] = cur-lc.prev[vl], cur
		}
		lc.samples = append(lc.samples, rates)
		if lc.outstanding > 0 {
			eng.PostAfter(lc.sc.SampleBT, lc, ev)
		}
	}
}

// admitDone settles arrival i's admission: a refusal resolves it, an
// admitted connection starts its flow and is released after its hold.
func (lc *lifecycles) admitDone(i int, conn *admission.Conn, err error) {
	if err != nil {
		switch {
		case errors.Is(err, admission.ErrHopDown):
			lc.rejectedDown++
		case errors.Is(err, admission.ErrHopBusy):
			lc.RejectedBusy++
		default:
			lc.RejectedCapacity++
		}
		lc.outstanding--
		lc.audit("abort")
		return
	}
	lc.Admitted++
	lat := lc.net.Ctrl.Now() - lc.arrivals[i].at
	lc.latSum += lat
	lc.MaxAdmitLatencyBT = max(lc.MaxAdmitLatencyBT, lat)
	lc.audit("commit")
	fl := lc.net.AddConnection(conn)
	lc.conns[i], lc.flows[i] = conn, fl
	lc.slowestIAT = max(lc.slowestIAT, fl.IAT)
	lc.net.StartFlow(fl)
	lc.net.Ctrl.PostAfter(lc.arrivals[i].hold, lc, sim.Event{Kind: evRelease, A: int32(i)})
}

// audit checks the admission invariants after an outcome at stage; the
// first violation stops the run.
func (lc *lifecycles) audit(stage string) {
	if lc.auditErr == nil {
		if err := lc.net.Adm.CheckInvariants(); err != nil {
			lc.auditErr = fmt.Errorf("lifecycle %s @%d: %w", stage, lc.net.Ctrl.Now(), err)
		}
	}
}

// drawChurnArrivals pre-draws every arrival time, hold time and
// request from the run's seed.
func drawChurnArrivals(sc Scenario, numHosts int) []churnArrival {
	rng := rand.New(rand.NewSource(sc.Seed))
	src := traffic.NewSource(sl.DefaultLevels, numHosts, sc.Seed+1)
	arrivals := make([]churnArrival, sc.Arrivals)
	t := int64(0)
	for i := range arrivals {
		t += 1 + int64(rng.ExpFloat64()*float64(sc.MeanGapBT))
		arrivals[i] = churnArrival{
			at:   t,
			hold: 1 + int64(rng.ExpFloat64()*float64(sc.MeanHoldBT)),
			req:  src.Next(),
		}
	}
	return arrivals
}

// vlRateCoV computes the coefficient of variation of each VL's
// per-window byte rate over its active span (first to last nonzero
// window), then returns the mean and max over VLs that carried
// traffic.  Iteration order is fixed, so the floats are deterministic.
func vlRateCoV(samples [][arbtable.NumVLs]int64) (mean, max float64) {
	var sum float64
	n := 0
	for vl := 0; vl < arbtable.NumVLs; vl++ {
		first, last := -1, -1
		for i := range samples {
			if samples[i][vl] > 0 {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		if first < 0 || last-first < 1 {
			continue
		}
		span := samples[first : last+1]
		var s, s2 float64
		for _, w := range span {
			v := float64(w[vl])
			s += v
			s2 += v * v
		}
		m := s / float64(len(span))
		variance := s2/float64(len(span)) - m*m
		if variance < 0 {
			variance = 0
		}
		cov := math.Sqrt(variance) / m
		sum += cov
		n++
		if cov > max {
			max = cov
		}
	}
	if n > 0 {
		mean = sum / float64(n)
	}
	return mean, max
}
