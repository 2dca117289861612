package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"repro/internal/admission"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/routing/cdg"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/sl"
	"repro/internal/subnet"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// failoverScenario is the live-failure experiment's base at scale s:
// each topology class of failoverSpecs(s) carries admitted QoS traffic
// while the run kills one link on a reserved path at FailAtBT (revived
// at 3x) and crashes one host-bearing switch at 2x.  The subnet
// manager's recovery must detect every failure, repair the routes with
// a fresh channel-dependency-graph proof before activation, reprogram
// the affected arbitration tables through the in-band programmer, and
// account for every packet — the point errors out if any of those
// audits fail.  HorizonBT must clear the schedule's last detection
// window.
func failoverScenario(s Scale) Scenario {
	sc := Scenario{
		Seed: 1, Fabric: fabric.DefaultConfig(0, 256, 0), Inband: true, Metrics: true,
		Retry: admission.DefaultRetryPolicy(), Conns: 12, FailAtBT: 100_000, HorizonBT: 450_000,
	}
	sc.Fabric.FailoverEscape = true
	if s != Tiny {
		sc.Conns = 24
	}
	return sc
}

// failoverSpecs is the failover sweep's axis at scale s: the smallest
// failure-worthy member of each topology class at Tiny, mid-size
// instances above it.
func failoverSpecs(s Scale) []topology.Spec {
	if s == Tiny {
		return []topology.Spec{
			irregular(6, 42),
			{Class: topology.FatTree, K: 4},
			{Class: topology.Dragonfly, A: 2, P: 1, H: 1},
		}
	}
	return []topology.Spec{
		irregular(10, 42),
		{Class: topology.FatTree, K: 4},
		{Class: topology.Dragonfly, A: 4, P: 2, H: 2},
	}
}

// failoverResult is the outcome of one topology point.  Every field is
// a pure function of the point's parameters and seed, so equal inputs
// give byte-identical JSON at any worker count.
type failoverResult struct {
	Class    string `json:"class"`
	Label    string `json:"label"`
	Switches int    `json:"switches"`
	Hosts    int    `json:"hosts"`
	Seed     int64  `json:"seed"`

	// Schedule is the injected failure schedule in its text encoding:
	// given to the point as Failures, it replays the point.
	Schedule string `json:"schedule"`

	Attempts int `json:"attempts"`
	Admitted int `json:"admitted"`

	// BaseCDG proves the pristine tables deadlock-free; RepairCDG
	// re-proves the active tables over the degraded topology after the
	// last activation.
	BaseCDG   cdg.Stats            `json:"baseCDG"`
	RepairCDG cdg.Stats            `json:"repairCDG"`
	Repair    routing.RepairReport `json:"repair"` // last activation's report

	DetectedKeys int64 `json:"detectedKeys"`
	DeadHosts    int   `json:"deadHosts"`
	StoppedConns int   `json:"stoppedConns"`
	Readmitted   int64 `json:"readmitted"`

	// Control carries the shared control-plane counters: SMP traffic of
	// the in-band reprogramming plus the recovery subsystem's repair,
	// drain and displacement counts.
	Control     metrics.ControlCounters `json:"control"`
	ProgramMADs int                     `json:"programMADs"`
	// RepairMADs is the part of ProgramMADs sent from FailAtBT to the
	// end of the drain: reconfig's per-link cost, not in this report.
	RepairMADs int `json:"-"`

	Injected  int64 `json:"injected"`
	Delivered int64 `json:"delivered"`
	Dropped   int64 `json:"dropped"`
	Lost      int64 `json:"lost"`

	EndTimeBT int64 `json:"endTimeBT"`
}

// admitGapBT spaces a failover run's QoS admission attempts.
const admitGapBT = 277

// failoverRun runs one live failover point: sc's QoS admissions, then,
// at sc.FailAtBT/2, sc's failure schedule, or, when sc.Failures is
// empty, one drawn from the admitted flows (its first failure at
// sc.FailAtBT), recovery, a drain and the end audits.
func failoverRun(sc Scenario) (failoverResult, error) {
	var res failoverResult
	if sc.Conns < 3 || sc.FailAtBT < 1 {
		return res, refuse("Conns, FailAtBT", "a failover point needs at least 3 admission attempts and a failure time, not %d and %d BT", sc.Conns, sc.FailAtBT)
	}
	r, err := build(sc)
	if err != nil {
		return res, err
	}
	net, prog, rec := r.Net, r.prog, r.rec
	topo := net.Topo
	// Validate (in build) refused a schedule that does not parse.
	given, _ := faults.ParseFailureSchedule(sc.Failures)
	for i, ev := range given {
		if ev.Switch >= topo.NumSwitches || ev.Kind == faults.FailLink && !topo.Wired(ev.Switch, ev.Port) || ev.At < sc.FailAtBT/2 {
			return res, refuse("Failures", "failure %d names an element the fabric lacks or precedes the schedule's application at FailAtBT/2", i+1)
		}
	}

	res = failoverResult{Class: sc.Topology.Class.String(), Label: sc.Topology.Label(),
		Switches: topo.NumSwitches, Hosts: topo.NumHosts(), Seed: sc.Seed, BaseCDG: r.proof}

	// QoS admissions, spread out in time so in-flight table programs
	// do not reject their successors; once traffic is established, the
	// given failure schedule or one drawn from the admitted flows.  Every
	// step is posted now, in the order of its instant's ties.
	src := traffic.NewSource(sl.DefaultLevels, topo.NumHosts(), sc.Seed+1)
	d := &failoverScript{r: r, given: given, res: &res, reqs: make([]traffic.Request, sc.Conns)}
	eng := net.Ctrl // == net.Engine on the single engine recovery requires
	for i := range d.reqs {
		d.reqs[i] = src.Next()
		eng.Post(int64(i)*admitGapBT+1, d, sim.Event{Kind: evFailoverAdmit, N: int64(i)})
	}
	eng.Post(sc.FailAtBT, d, sim.Event{Kind: evFailoverSnapshot})
	eng.Post(sc.FailAtBT/2, d, sim.Event{Kind: evFailoverApply})

	net.Run(sc.HorizonBT)
	if d.err != nil {
		return res, d.err
	}
	if err := rec.Err(); err != nil {
		return res, fmt.Errorf("failover %s: %w", res.Label, err)
	}
	c := net.ControlCounters()
	if c.RepairsStarted != c.RepairsCompleted || c.RepairsCompleted < int64(len(d.failures)) {
		return res, fmt.Errorf("failover %s: repairs started %d completed %d, want >= %d completed",
			res.Label, c.RepairsStarted, c.RepairsCompleted, len(d.failures))
	}

	// Drain: stop generation and run until nothing is queued and no
	// re-admission is still in flight (the cap turns a defect into an
	// error instead of a hang).
	net.StopGeneration()
	deadline := net.Now() + 1<<26
	net.RunWhile(func() bool {
		return (net.QueuedPackets() > 0 || rec.PendingReadmits() > 0) && net.Now() < deadline
	})
	if q := net.QueuedPackets(); q != 0 {
		return res, fmt.Errorf("failover %s: %d packets stuck after drain", res.Label, q)
	}
	res.RepairMADs = prog.Costs.MADs - d.madsAtFailure

	// Release every surviving reservation and run the engine dry so the
	// last table programs land.
	conns, cflows := rec.Survivors()
	res.StoppedConns = res.Admitted - len(conns)
	released := 0
	for i := range conns {
		net.ReleaseConnection(conns[i], cflows[i], func() { released++ })
	}
	net.RunWhile(func() bool { return true })
	if released != len(conns) {
		return res, fmt.Errorf("failover %s: released %d of %d survivors", res.Label, released, len(conns))
	}
	if open := prog.OpenTransactions(); open != 0 {
		return res, fmt.Errorf("failover %s: %d table transactions never terminated", res.Label, open)
	}

	// Convergence: no connection live, every port idle with active ==
	// shadow — dead ports excepted, which can never be reprogrammed.
	// Then packet conservation (including failure losses) and the
	// fabric audit: credits, scheduling indexes, every port table (the
	// distance guarantee included) and the reservation ledger.
	if err := net.Adm.CheckConverged(); err != nil {
		return res, fmt.Errorf("failover %s: %w", res.Label, err)
	}
	if err := net.CheckConservation(); err != nil {
		return res, fmt.Errorf("failover %s: %w", res.Label, err)
	}
	if err := net.CheckInvariants(); err != nil {
		return res, fmt.Errorf("failover %s: %w", res.Label, err)
	}

	// The tables left active must still carry their acyclicity proof
	// over the degraded topology.
	if res.RepairCDG, err = cdg.VerifyPartial(rec.Degraded(), net.Routes); err != nil {
		return res, fmt.Errorf("failover %s: active routes lost their acyclicity proof: %w", res.Label, err)
	}

	res.Repair = rec.Report()
	res.DetectedKeys = rec.DetectedKeys()
	res.Readmitted = rec.Readmitted()
	for h := 0; h < topo.NumHosts(); h++ {
		if rec.HostDead(h) {
			res.DeadHosts++
		}
	}
	res.Control = *c
	res.ProgramMADs = prog.Costs.MADs
	res.Injected, res.Delivered, res.Dropped = net.Totals()
	res.Lost = net.LostPackets()
	res.EndTimeBT = net.Now()
	return res, nil
}

// Event kinds of the failover script (its own kind space, as a
// sim.Handler's is).
const (
	evFailoverAdmit    sim.Kind = iota // QoS admission attempt N
	evFailoverSnapshot                 // the MADs sent before FailAtBT
	evFailoverApply                    // the failure schedule
)

// failoverScript is a failover point's control-plane script, a
// sim.Handler on the control lane: the QoS admissions, the failure
// schedule's application and the MAD count at the first failure.
type failoverScript struct {
	r     *run
	given faults.Schedule
	reqs  []traffic.Request
	res   *failoverResult

	flows         []*fabric.Flow
	failures      map[int64]bool // the schedule's distinct failure times
	madsAtFailure int
	err           error
}

// HandleEvent implements sim.Handler.
func (d *failoverScript) HandleEvent(ev sim.Event) {
	switch ev.Kind {
	case evFailoverAdmit:
		d.admit(d.reqs[ev.N])
	case evFailoverSnapshot:
		d.madsAtFailure = d.r.prog.Costs.MADs
	case evFailoverApply:
		d.err = d.apply()
	}
}

// admit attempts one QoS admission; an admitted connection starts its
// flow under the recovery's tracking.
func (d *failoverScript) admit(req traffic.Request) {
	net := d.r.Net
	d.res.Attempts++
	net.Adm.AdmitWithRetry(net.Ctrl, req, d.r.sc.Retry, func(conn *admission.Conn, err error) {
		if err != nil {
			return // rejection under load is legitimate
		}
		d.res.Admitted++
		f := net.AddConnection(conn)
		net.StartFlow(f)
		d.r.rec.Track(conn, f)
		d.flows = append(d.flows, f)
	})
}

// apply applies the given failure schedule, or one drawn from the
// admitted flows.  Every distinct failure time changes the dead set, so
// each must end in a repair; a revival may leave the classification
// alone.
func (d *failoverScript) apply() error {
	sc, label := d.r.sc, d.res.Label
	if len(d.flows) < 3 {
		return fmt.Errorf("failover %s: only %d connections admitted", label, len(d.flows))
	}
	sched := d.given
	if sc.Failures == "" {
		var err error
		if sched, err = drawFailoverSchedule(d.r.Net, d.flows, sc); err != nil {
			return fmt.Errorf("failover %s: %w", label, err)
		}
	}
	d.failures = make(map[int64]bool, len(sched))
	last := int64(0)
	for _, ev := range sched {
		d.failures[ev.At] = true
		last = max(last, ev.At, ev.Revive)
	}
	if sc.HorizonBT <= last+subnet.TimeoutBT+2*subnet.PollBT {
		return fmt.Errorf("failover %s: %w", label, refuse("HorizonBT", "horizon %d inside the last detection window", sc.HorizonBT))
	}
	d.res.Schedule = sched.String()
	if err := d.r.rec.ApplySchedule(sched); err != nil {
		return fmt.Errorf("failover %s: %w", label, err)
	}
	return nil
}

// drawFailoverSchedule picks the point's two victims from the live
// traffic: the first inter-switch hop of a reserved path (killed, then
// revived at 3x the failure time) and the host-bearing switch of a
// seed-chosen connection's destination (crashed for good at 2x).
func drawFailoverSchedule(net *fabric.Network, flows []*fabric.Flow, sc Scenario) (faults.Schedule, error) {
	var s faults.Schedule
	for _, f := range flows {
		path, err := net.Routes.PathSwitches(int(f.Src), int(f.Dst))
		if err != nil || len(path) < 2 {
			continue
		}
		s = append(s, faults.FailureEvent{
			Kind: faults.FailLink, Switch: path[0], Port: net.Routes.NextPort(path[0], int(f.Dst)),
			At: sc.FailAtBT, Revive: 3 * sc.FailAtBT,
		})
		break
	}
	if len(s) == 0 {
		return nil, fmt.Errorf("no reserved path crosses an inter-switch link")
	}
	rng := rand.New(rand.NewSource(sc.Seed + 7))
	victim := flows[rng.Intn(len(flows))]
	sw, _ := net.Topo.HostSwitch(int(victim.Dst))
	s = append(s, faults.FailureEvent{Kind: faults.FailSwitch, Switch: sw, At: 2 * sc.FailAtBT})
	return s, nil
}

// failoverSweep runs sc on every topology of specs, each at a seed
// derived from sc's and the point's index; the wiring stays the spec's.
// Results come back in input order regardless of worker count, so the
// sweep's JSON encoding is bit-identical at any parallelism.
func failoverSweep(sc Scenario, specs []topology.Spec, workers int) ([]failoverResult, error) {
	jobs := make([]runner.Job[failoverResult], len(specs))
	for i, spec := range specs {
		jobs[i] = runner.Job[failoverResult]{
			Name: spec.Label(),
			Seed: runner.DeriveSeed(sc.Seed, i),
			Run: func(seed int64) (failoverResult, error) {
				p := sc
				p.Topology, p.Seed = spec, seed
				return failoverRun(p)
			},
		}
	}
	return runner.Sweep(jobs, workers)
}

// printFailover renders a failover sweep as a table, one row per
// topology point.
func printFailover(w io.Writer, res []failoverResult) {
	if len(res) == 0 {
		return
	}
	fmt.Fprintln(w, "Live failure and verified route repair (RepairCDG proves the post-failure tables deadlock-free)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "topology\tsw\thosts\tadm/att\trepairs\tdetected\tdispl\treadm\tdrain/reinj/lost\tunreach\tCDG ch/dep\tMADs")
	for _, r := range res {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d/%d\t%d\t%d\t%d\t%d\t%d/%d/%d\t%d\t%d/%d\t%d\n",
			r.Label, r.Switches, r.Hosts, r.Admitted, r.Attempts,
			r.Control.RepairsCompleted, r.DetectedKeys,
			r.Control.FlowsDisplaced, r.Readmitted,
			r.Control.PacketsDrained, r.Control.PacketsReinjected, r.Control.PacketsLost,
			r.Repair.UnreachablePairs, r.RepairCDG.Channels, r.RepairCDG.Deps,
			r.ProgramMADs)
	}
	tw.Flush()
}
