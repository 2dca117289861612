package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/subnet"
	"repro/internal/topology"
)

// FaultParams sizes the fault-injection experiment: the churn workload
// runs unchanged, but the management network loses, duplicates,
// corrupts and reorders SMPs, and a flap schedule takes links down
// while connections arrive and leave.  The hardened control plane —
// retransmission, transaction deadlines, the self-healing audit — must
// keep every guarantee the fault-free runs prove: admitted connections
// keep their distance placement, every transaction terminates (commit
// or byte-identical rollback), and the whole run is bit-identical
// across worker counts.
type FaultParams struct {
	Churn ChurnParams

	// Per-SMP fault probabilities (see faults.Config).
	Drop         float64
	Duplicate    float64
	Corrupt      float64
	Reorder      float64
	MaxReorderBT int64

	// Flaps is the number of link-down windows drawn from the seed;
	// each takes one random link down for an exponentially distributed
	// time with mean MeanFlapDownBT.
	Flaps          int
	MeanFlapDownBT int64

	Retry subnet.RetryProfile
	Audit subnet.AuditConfig
}

// FaultsTiny is the unit-test and golden scale: the churn-tiny workload
// under moderate loss, occasional corruption and a few short flaps.
func FaultsTiny() FaultParams {
	c := ChurnTiny()
	c.Seed = 1
	c.Retry.DeadlineBT = 1 << 20 // cap total admission retry time too
	return FaultParams{
		Churn:          c,
		Drop:           0.05,
		Duplicate:      0.05,
		Corrupt:        0.02,
		Reorder:        0.05,
		MaxReorderBT:   256,
		Flaps:          3,
		MeanFlapDownBT: 16384,
		Retry:          subnet.DefaultRetryProfile(),
		Audit:          subnet.DefaultAuditConfig(),
	}
}

// FaultsQuick is the CLI default: the churn-quick workload under the
// same fault model.
func FaultsQuick() FaultParams {
	p := FaultsTiny()
	p.Churn.Switches = 4
	p.Churn.Arrivals = 240
	p.Flaps = 6
	return p
}

// FaultsResult is the outcome of one faulty churn run.  Like
// ChurnResult it is a pure function of the parameters, so equal params
// give byte-identical JSON at any parallelism.
type FaultsResult struct {
	Switches int   `json:"switches"`
	Hosts    int   `json:"hosts"`
	Seed     int64 `json:"seed"`

	Drop    float64 `json:"drop"`
	Corrupt float64 `json:"corrupt"`
	Flaps   int     `json:"flaps"`

	Offered          int `json:"offered"`
	Admitted         int `json:"admitted"`
	RejectedCapacity int `json:"rejectedCapacity"`
	RejectedBusy     int `json:"rejectedBusy"`
	RejectedDown     int `json:"rejectedDown"`
	Released         int `json:"released"`

	// Control-plane recovery work under injected faults.
	Control  metrics.ControlCounters `json:"control"`
	Reconfig core.ReconfigStats      `json:"reconfig"`

	// Injected-fault tallies as the injector dealt them.
	Injected faults.Stats `json:"injected"`

	// Termination and integrity audit results; all must be zero for a
	// run to return without error, except QuarantinedAtEnd (a port the
	// control plane deliberately took out of service).
	UnterminatedTxns    int `json:"unterminatedTxns"`
	DirtySurvivors      int `json:"dirtySurvivors"`
	GuaranteeViolations int `json:"guaranteeViolations"`
	QuarantinedAtEnd    int `json:"quarantinedAtEnd"`

	MeanVLRateCoV float64 `json:"meanVLRateCoV"`
	MaxVLRateCoV  float64 `json:"maxVLRateCoV"`

	EndTimeBT int64 `json:"endTimeBT"`

	// Parallel-run provenance, set only when the shards actually ran
	// concurrently (never in single-engine or deterministic modes, so
	// golden outputs and the cross-shard-count determinism regression
	// keep their byte shape).
	Parallel bool   `json:"parallel,omitempty"`
	Windows  uint64 `json:"windows,omitempty"`
}

// drawFlapSchedule pre-draws the link-down windows from the seed: the
// flapped links, start times across the arrival span, and hold times
// are all fixed before the simulation starts, like the churn arrivals.
func drawFlapSchedule(p FaultParams, topo *topology.Topology, inj *faults.Injector, span int64) {
	if p.Flaps < 1 {
		return
	}
	rng := rand.New(rand.NewSource(p.Churn.Seed + 2))
	var links []int32
	for h := 0; h < topo.NumHosts(); h++ {
		links = append(links, faults.HostKey(h))
	}
	for s := 0; s < topo.NumSwitches; s++ {
		for q := 0; q < topo.Ports(); q++ {
			if topo.Wired(s, q) {
				links = append(links, faults.SwitchPortKey(s, q))
			}
		}
	}
	for i := 0; i < p.Flaps; i++ {
		link := links[rng.Intn(len(links))]
		from := 1 + rng.Int63n(span)
		down := 1 + int64(rng.ExpFloat64()*float64(p.MeanFlapDownBT))
		inj.AddLinkDown(link, from, from+down)
	}
}

// Faults runs one fault-injection experiment.  The same audits as
// Churn run after every admission outcome and release; the end-state
// audit additionally proves termination (no open transactions, no
// pending audit rounds) and convergence (active == shadow) on every
// hop the control plane did not deliberately quarantine.
func Faults(p FaultParams) (FaultsResult, error) {
	var res FaultsResult
	c := p.Churn
	if c.Switches < 2 || c.Arrivals < 1 || c.MeanGapBT < 1 || c.MeanHoldBT < 1 {
		return res, fmt.Errorf("experiments: fault parameters %+v out of range", p)
	}
	if c.SampleBT < 1 {
		c.SampleBT = 8192
	}

	cfg := fabric.DefaultConfig(c.Switches, c.Payload, c.Seed)
	cfg.Shards = c.Shards
	cfg.ShardDeterministic = c.ShardDet
	net, err := fabric.New(cfg)
	if err != nil {
		return res, err
	}
	net.EnableMetrics()
	res.Switches = c.Switches
	res.Hosts = net.Topo.NumHosts()
	res.Seed = c.Seed
	res.Drop = p.Drop
	res.Corrupt = p.Corrupt
	res.Flaps = p.Flaps
	res.Offered = c.Arrivals

	inj := faults.New(faults.Config{
		Seed:         c.Seed,
		Drop:         p.Drop,
		Duplicate:    p.Duplicate,
		Corrupt:      p.Corrupt,
		Reorder:      p.Reorder,
		MaxReorderBT: p.MaxReorderBT,
	})
	net.SetFaults(inj)

	// The hardened control plane: reliable in-band programming plus the
	// self-healing auditor, all metered into the network's counters and
	// running as typed events on the control lane.
	m := subnet.NewManager(net.Topo)
	m.Routes = net.Routes
	prog := subnet.NewInbandProgrammer(net.Ctrl, m)
	prog.Faults = inj
	prog.Retry = p.Retry
	prog.Counters = net.ControlCounters()
	aud := subnet.NewAuditor(net.Ctrl, prog, p.Audit)
	net.Adm.SetProgrammer(prog)
	net.Adm.Down = aud.Quarantined
	if net.Parallel() {
		prog.ShardOf = net.PortShard
		prog.HomeShard = net.PortShard(admission.SwitchPortID(m.HomeSwitch, 0))
	}

	arrivals := drawChurnArrivals(c, net.Topo.NumHosts())
	drawFlapSchedule(p, net.Topo, inj, arrivals[len(arrivals)-1].at)

	eng := net.Ctrl
	var auditErr error
	audit := func(stage string) {
		if auditErr != nil {
			return
		}
		if err := net.Adm.CheckInvariants(); err != nil {
			auditErr = fmt.Errorf("faults %s @%d: %w", stage, eng.Now(), err)
		}
	}

	outstanding := len(arrivals)
	for _, arr := range arrivals {
		arr := arr
		eng.At(arr.at, func() {
			net.Adm.AdmitWithRetry(eng, arr.req, c.Retry, func(conn *admission.Conn, err error) {
				if err != nil {
					switch {
					case errors.Is(err, admission.ErrHopDown):
						res.RejectedDown++
					case errors.Is(err, admission.ErrHopBusy):
						res.RejectedBusy++
					default:
						res.RejectedCapacity++
					}
					outstanding--
					audit("abort")
					return
				}
				res.Admitted++
				audit("commit")
				fl := net.AddConnection(conn)
				net.StartFlow(fl)
				eng.After(arr.hold, func() {
					net.ReleaseConnection(conn, fl, func() {
						res.Released++
						outstanding--
						audit("release")
					})
				})
			})
		})
	}

	// Per-VL byte-rate sampling, as in Churn.
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
			eng.After(c.SampleBT, sample)
		}
	}
	eng.After(c.SampleBT, sample)

	net.RunWhile(func() bool { return auditErr == nil })
	if auditErr != nil {
		return res, auditErr
	}

	// Termination: every transaction settled, every audit round done.
	res.UnterminatedTxns = prog.OpenTransactions()
	if aud.AuditsPending() {
		res.UnterminatedTxns++
	}

	// Convergence on surviving hops: every port the control plane still
	// serves must have its active table byte-identical to its shadow.
	// Quarantined hops are the deliberate exception — their shadow holds
	// state the management network never managed to deliver.
	checkPort := func(id admission.PortID, tb *core.PortTable) {
		if aud.Quarantined(id) {
			res.QuarantinedAtEnd++
			return
		}
		if tb.Programming() || tb.Dirty() {
			res.DirtySurvivors++
		}
		shadow := tb.Allocator().Table()
		for _, s := range tb.Allocator().Sequences() {
			if g := shadow.MaxGap(s.VL); g > s.Stride {
				res.GuaranteeViolations++
			}
		}
	}
	ports := net.Adm.Ports()
	for h, tb := range ports.Host {
		checkPort(admission.HostPortID(h), tb)
	}
	for s := range ports.Switch {
		for q, tb := range ports.Switch[s] {
			checkPort(admission.SwitchPortID(s, q), tb)
		}
	}
	audit("final")
	if auditErr != nil {
		return res, auditErr
	}
	if res.UnterminatedTxns != 0 {
		return res, fmt.Errorf("faults end: %d transactions or audits unterminated", res.UnterminatedTxns)
	}
	if res.DirtySurvivors != 0 {
		return res, fmt.Errorf("faults end: %d surviving ports with active != shadow", res.DirtySurvivors)
	}
	if res.GuaranteeViolations != 0 {
		return res, fmt.Errorf("faults end: %d distance-guarantee violations", res.GuaranteeViolations)
	}
	if net.Adm.Live() != 0 {
		return res, fmt.Errorf("faults end: %d connections still live", net.Adm.Live())
	}

	res.Control = net.Metrics.Control
	res.Reconfig = net.ReconfigStats()
	res.Injected = inj.Stats()
	res.MeanVLRateCoV, res.MaxVLRateCoV = vlRateCoV(samples)
	res.EndTimeBT = eng.Now()
	if net.Parallel() {
		res.Parallel = true
		res.Windows = net.Windows()
	}
	return res, nil
}

// faultPoint is one sweep coordinate of the fault grid; scale
// multiplies the base parameters' duplicate and reorder rates so the
// control point is genuinely fault-free.
type faultPoint struct {
	drop, corrupt float64
	flaps         int
	scale         float64
}

// faultGrid is the default sweep: fault-free control point, moderate
// loss, and heavy loss with frequent flaps.
var faultGrid = []faultPoint{
	{0, 0, 0, 0},
	{0.02, 0.01, 2, 1},
	{0.10, 0.04, 5, 1},
}

// FaultsSweep runs the experiment across the fault grid (drop and
// corruption rates, flap counts), one job per point.  Results come back
// in input order regardless of worker count, so the sweep's JSON is
// bit-identical at any parallelism.
func FaultsSweep(base FaultParams, workers int) ([]FaultsResult, error) {
	jobs := make([]runner.Job[FaultsResult], len(faultGrid))
	for i := range jobs {
		pt := faultGrid[i]
		jobs[i] = runner.Job[FaultsResult]{
			Name: fmt.Sprintf("faults-d%g-c%g-f%d", pt.drop, pt.corrupt, pt.flaps),
			Seed: base.Churn.Seed,
			Run: func(_ context.Context, seed int64) (FaultsResult, error) {
				p := base
				p.Churn.Seed = seed
				p.Drop = pt.drop
				p.Corrupt = pt.corrupt
				p.Flaps = pt.flaps
				p.Duplicate *= pt.scale
				p.Reorder *= pt.scale
				return Faults(p)
			},
		}
	}
	return sweep(jobs, workers)
}

// PrintFaults renders a fault sweep as a table, one row per fault
// point.
func PrintFaults(w io.Writer, res []FaultsResult) {
	if len(res) == 0 {
		return
	}
	fmt.Fprintf(w, "Control plane under injected faults (%d switches, %d hosts, seed %d)\n",
		res[0].Switches, res[0].Hosts, res[0].Seed)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "drop\tcorrupt\tflaps\tadmit/offer\tdown\tdropSMP\tretx\tdeadl\taband\taudits\theal\tquar\tVL CoV")
	for _, r := range res {
		fmt.Fprintf(tw, "%.2f\t%.2f\t%d\t%d/%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.3f\n",
			r.Drop, r.Corrupt, r.Flaps, r.Admitted, r.Offered, r.RejectedDown,
			r.Control.SMPsDropped, r.Control.Retransmits, r.Control.DeadlineAborts,
			r.Control.Abandoned, r.Control.AuditRounds, r.Control.AuditRecoveries,
			r.QuarantinedAtEnd, r.MeanVLRateCoV)
	}
	tw.Flush()
}
