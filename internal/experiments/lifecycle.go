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
	"repro/internal/sl"
	"repro/internal/traffic"
)

// lifecycleHoldCap bounds a lifecycle run: a lifecycle still unresolved
// this many mean holds after the last arrival, plus one packet gap of
// the slowest admitted flow (the release poll's period), is stuck, and
// the run stops with an error naming it.
const lifecycleHoldCap = 20

// lifecycles is the outcome of one lifecycle run: the churn report,
// filled in full, and what a fault rig adds to it.  runChurn returns
// the report; runFaults copies its fields from it.
type lifecycles struct {
	ChurnResult
	net *fabric.Network

	rejectedDown, quarantined int
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

// runLifecycles runs sc's connection lifecycles on a live fabric:
// every arrival goes through AdmitWithRetry, an admitted connection
// starts its flow and is released after its hold, and every table delta
// travels in-band as SMPs on the control lane.  After every admission
// outcome and every completed release it audits the admission
// invariants, and at the end it audits the whole fabric
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
	lc := &lifecycles{net: net}
	lc.Switches, lc.Hosts, lc.Seed, lc.Offered = net.Topo.NumSwitches, net.Topo.NumHosts(), sc.Seed, sc.Arrivals
	if sc.SMPFaults {
		drawFlapSchedule(sc, net.Topo, net.Faults, lastArrival)
	}

	eng := net.Ctrl
	var auditErr error
	audit := func(stage string) {
		if auditErr == nil {
			if err := net.Adm.CheckInvariants(); err != nil {
				auditErr = fmt.Errorf("lifecycle %s @%d: %w", stage, eng.Now(), err)
			}
		}
	}

	// outstanding counts lifecycles still in flight: unresolved
	// arrivals plus admitted connections not yet fully released.  The
	// bandwidth sampler stops with the last one.  live holds the flows
	// of admitted connections until their release completes.
	outstanding := len(arrivals)
	live := make([]*fabric.Flow, len(arrivals))
	var latSum, slowestIAT int64
	for i, arr := range arrivals {
		eng.At(arr.at, func() {
			net.Adm.AdmitWithRetry(eng, arr.req, sc.Retry, func(conn *admission.Conn, err error) {
				if err != nil {
					switch {
					case errors.Is(err, admission.ErrHopDown):
						lc.rejectedDown++
					case errors.Is(err, admission.ErrHopBusy):
						lc.RejectedBusy++
					default:
						lc.RejectedCapacity++
					}
					outstanding--
					audit("abort")
					return
				}
				lc.Admitted++
				lat := eng.Now() - arr.at
				latSum += lat
				lc.MaxAdmitLatencyBT = max(lc.MaxAdmitLatencyBT, lat)
				audit("commit")
				fl := net.AddConnection(conn)
				live[i] = fl
				slowestIAT = max(slowestIAT, fl.IAT)
				net.StartFlow(fl)
				eng.After(arr.hold, func() {
					net.ReleaseConnection(conn, fl, func() {
						lc.Released++
						outstanding--
						live[i] = nil
						audit("release")
					})
				})
			})
		})
	}

	// Per-VL byte-rate sampling for the stability metric.
	var prev [arbtable.NumVLs]int64
	var samples [][arbtable.NumVLs]int64
	var sample func()
	sample = func() {
		var rates [arbtable.NumVLs]int64
		for vl := 0; vl < arbtable.NumVLs; vl++ {
			cur := net.VLBytes(vl)
			rates[vl] = cur - prev[vl]
			prev[vl] = cur
		}
		samples = append(samples, rates)
		if outstanding > 0 {
			eng.After(sc.SampleBT, sample)
		}
	}
	eng.After(sc.SampleBT, sample)

	limit := func() int64 { return lastArrival + lifecycleHoldCap*sc.MeanHoldBT + slowestIAT }
	net.RunWhile(func() bool { return auditErr == nil && (outstanding == 0 || eng.Now() <= limit()) })
	if auditErr != nil {
		return nil, auditErr
	}
	if outstanding > 0 {
		var stuck []string
		for _, f := range live {
			if f != nil {
				stuck = append(stuck, fmt.Sprintf("flow %d (host %d->%d, VL %d)", f.ID, f.Src, f.Dst, f.VL))
			}
		}
		return nil, fmt.Errorf("experiments: %d lifecycles unresolved at %d BT, %d mean holds after the last arrival (%d still admitting); unreleased: %s",
			outstanding, eng.Now(), lifecycleHoldCap, outstanding-len(stuck), strings.Join(stuck, ", "))
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
		lc.MeanAdmitLatencyBT = float64(latSum) / float64(lc.Admitted)
	}
	lc.ProgramMADs, lc.ProgramTimeBT = prog.Costs.MADs, prog.Costs.TimeBT
	lc.Reconfig = net.ReconfigStats()
	lc.MeanVLRateCoV, lc.MaxVLRateCoV = vlRateCoV(samples)
	lc.EndTimeBT = eng.Now()
	lc.Parallel, lc.Windows = net.Parallel(), net.Windows()
	return lc, nil
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
