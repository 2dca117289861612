package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"text/tabwriter"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/runner"
	"repro/internal/sl"
	"repro/internal/subnet"
	"repro/internal/traffic"
)

// ChurnParams sizes the connection-churn experiment: connections
// arrive with exponentially distributed gaps, hold their reservation
// for an exponentially distributed time, and leave — all while the
// fabric keeps forwarding traffic and every table change travels
// in-band as SMPs.  This exercises the control/data-plane split end to
// end: two-phase admission, versioned table swaps at packet
// boundaries, retry-and-backoff on busy hops.
type ChurnParams struct {
	Switches int
	Seed     int64
	Payload  int // packet payload bytes

	Arrivals   int   // connection arrival events
	MeanGapBT  int64 // mean interarrival gap, byte times
	MeanHoldBT int64 // mean connection hold time, byte times
	SampleBT   int64 // VL bandwidth sampling window, byte times

	Retry admission.RetryPolicy

	// Shards partitions the fabric (fabric.Config.Shards).  Churn's
	// control plane — admissions, releases, in-band table programs —
	// runs as typed events on the fabric's control lane, so it works
	// at any shard count: serialized at window barriers when the
	// shards run in parallel, on the shared engine otherwise.
	Shards int

	// ShardDet forces the deterministic single-engine mode
	// (fabric.Config.ShardDeterministic): all shards on one engine,
	// bit-identical output for every shard count.  Off, Shards > 1
	// runs the parallel coordinator.
	ShardDet bool
}

// ChurnTiny is the unit-test scale: a 2-switch fabric with enough
// overlap between arrivals and in-flight table programs to make
// retries and chained reprogramming happen.
func ChurnTiny() ChurnParams {
	return ChurnParams{
		Switches:   2,
		Seed:       42,
		Payload:    512,
		Arrivals:   80,
		MeanGapBT:  2048,
		MeanHoldBT: 65536,
		SampleBT:   8192,
		Retry:      admission.DefaultRetryPolicy(),
	}
}

// ChurnQuick is the CLI default: a 4-switch fabric under sustained
// churn.
func ChurnQuick() ChurnParams {
	p := ChurnTiny()
	p.Switches = 4
	p.Arrivals = 240
	return p
}

// ChurnResult is the outcome of one churn run.  Every field is
// computed on the simulated clock from the run's seed, so equal
// parameters give byte-identical JSON regardless of host or worker
// count.
type ChurnResult struct {
	Switches int   `json:"switches"`
	Hosts    int   `json:"hosts"`
	Seed     int64 `json:"seed"`

	Offered          int `json:"offered"`
	Admitted         int `json:"admitted"`
	RejectedCapacity int `json:"rejectedCapacity"`
	RejectedBusy     int `json:"rejectedBusy"`
	Released         int `json:"released"`

	// Admission latency: arrival to final Admit outcome.  Nonzero only
	// when a busy hop forced backoff, so it measures control-plane
	// contention directly.
	MeanAdmitLatencyBT float64 `json:"meanAdmitLatencyBT"`
	MaxAdmitLatencyBT  int64   `json:"maxAdmitLatencyBT"`

	// Control-plane work: defragmentation moves across all port
	// allocators, SMPs spent programming deltas, and the ports'
	// reconfiguration counters.
	TableMoves    int                `json:"tableMoves"`
	ProgramMADs   int                `json:"programMADs"`
	ProgramTimeBT int64              `json:"programTimeBT"`
	Reconfig      core.ReconfigStats `json:"reconfig"`

	// Bandwidth stability: coefficient of variation of the per-window
	// scheduled byte rate, per data VL, averaged (and maxed) over VLs
	// that carried traffic.  Lower is steadier service under churn.
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

// churnArrival is one pre-drawn connection lifecycle.  Drawing every
// random variate before the simulation starts keeps the rng stream
// independent of event interleaving, which is what makes the run
// reproducible from the seed alone.
type churnArrival struct {
	at   int64
	hold int64
	req  traffic.Request
}

// forEachPortTable visits every output-port table of the fabric.
func forEachPortTable(ports *admission.Ports, fn func(*core.PortTable)) {
	for _, pt := range ports.Host {
		fn(pt)
	}
	for _, row := range ports.Switch {
		for _, pt := range row {
			fn(pt)
		}
	}
}

// Churn runs one churn experiment.  After every admission outcome and
// every completed release it audits the allocator invariants, the
// paper's distance guarantee (max slot gap <= stride for every live
// sequence) and active/shadow agreement on idle ports; any violation
// aborts the run with an error.
func Churn(p ChurnParams) (ChurnResult, error) {
	var res ChurnResult
	if p.Switches < 2 || p.Arrivals < 1 || p.MeanGapBT < 1 || p.MeanHoldBT < 1 {
		return res, fmt.Errorf("experiments: churn parameters %+v out of range", p)
	}
	if p.SampleBT < 1 {
		p.SampleBT = 8192
	}

	cfg := fabric.DefaultConfig(p.Switches, p.Payload, p.Seed)
	cfg.Shards = p.Shards
	cfg.ShardDeterministic = p.ShardDet
	net, err := fabric.New(cfg)
	if err != nil {
		return res, err
	}
	net.EnableMetrics()
	res.Switches = p.Switches
	res.Hosts = net.Topo.NumHosts()
	res.Seed = p.Seed
	res.Offered = p.Arrivals

	// Table programs travel in-band through the subnet manager, as
	// typed events on the control lane (the shared engine in
	// single-engine modes, the serialized barrier lane in parallel).
	m := subnet.NewManager(net.Topo)
	m.Routes = net.Routes
	prog := subnet.NewInbandProgrammer(net.Ctrl, m)
	net.Adm.SetProgrammer(prog)
	if net.Parallel() {
		prog.Counters = net.ControlCounters()
		prog.ShardOf = net.PortShard
		prog.HomeShard = net.PortShard(admission.SwitchPortID(m.HomeSwitch, 0))
	}

	arrivals := drawChurnArrivals(p, net.Topo.NumHosts())

	eng := net.Ctrl
	var auditErr error
	audit := func(stage string) {
		if auditErr != nil {
			return
		}
		if err := net.Adm.CheckInvariants(); err != nil {
			auditErr = fmt.Errorf("churn %s @%d: %w", stage, eng.Now(), err)
			return
		}
		forEachPortTable(net.Adm.Ports(), func(tb *core.PortTable) {
			if auditErr != nil {
				return
			}
			shadow := tb.Allocator().Table()
			for _, s := range tb.Allocator().Sequences() {
				if g := shadow.MaxGap(s.VL); g > s.Stride {
					auditErr = fmt.Errorf("churn %s @%d: VL %d max gap %d exceeds stride %d",
						stage, eng.Now(), s.VL, g, s.Stride)
					return
				}
			}
			if !tb.Dirty() && !tb.Programming() && tb.Active().High != shadow.High {
				auditErr = fmt.Errorf("churn %s @%d: idle port has active != shadow", stage, eng.Now())
			}
		})
	}

	// outstanding counts lifecycles still in flight: unresolved
	// arrivals plus admitted connections not yet fully released.  The
	// bandwidth sampler stops with the last one.
	outstanding := len(arrivals)
	var latSum int64
	for _, arr := range arrivals {
		arr := arr
		eng.At(arr.at, func() {
			net.Adm.AdmitWithRetry(eng, arr.req, p.Retry, func(conn *admission.Conn, err error) {
				if err != nil {
					if errors.Is(err, admission.ErrHopBusy) {
						res.RejectedBusy++
					} else {
						res.RejectedCapacity++
					}
					outstanding--
					audit("abort")
					return
				}
				res.Admitted++
				lat := eng.Now() - arr.at
				latSum += lat
				if lat > res.MaxAdmitLatencyBT {
					res.MaxAdmitLatencyBT = lat
				}
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
			eng.After(p.SampleBT, sample)
		}
	}
	eng.After(p.SampleBT, sample)

	net.RunWhile(func() bool { return auditErr == nil })
	if auditErr != nil {
		return res, auditErr
	}

	// The drained fabric must be fully converged: every program landed
	// and every active table matches its shadow.
	forEachPortTable(net.Adm.Ports(), func(tb *core.PortTable) {
		if auditErr == nil && (tb.Programming() || tb.Dirty()) {
			auditErr = fmt.Errorf("churn end: port still %v after drain",
				map[bool]string{true: "programming", false: "dirty"}[tb.Programming()])
		}
	})
	audit("final")
	if auditErr != nil {
		return res, auditErr
	}
	if net.Adm.Live() != 0 {
		return res, fmt.Errorf("churn end: %d connections still live", net.Adm.Live())
	}

	if res.Admitted > 0 {
		res.MeanAdmitLatencyBT = float64(latSum) / float64(res.Admitted)
	}
	forEachPortTable(net.Adm.Ports(), func(tb *core.PortTable) {
		res.TableMoves += tb.Allocator().TotalMoves()
	})
	res.ProgramMADs = prog.Costs.MADs
	res.ProgramTimeBT = prog.Costs.TimeBT
	res.Reconfig = net.ReconfigStats()
	res.MeanVLRateCoV, res.MaxVLRateCoV = vlRateCoV(samples)
	res.EndTimeBT = eng.Now()
	if net.Parallel() {
		res.Parallel = true
		res.Windows = net.Windows()
	}
	return res, nil
}

// drawChurnArrivals pre-draws every arrival time, hold time and
// request from the run's seed.
func drawChurnArrivals(p ChurnParams, numHosts int) []churnArrival {
	rng := rand.New(rand.NewSource(p.Seed))
	src := traffic.NewSource(sl.DefaultLevels, numHosts, p.Seed+1)
	arrivals := make([]churnArrival, p.Arrivals)
	t := int64(0)
	for i := range arrivals {
		t += 1 + int64(rng.ExpFloat64()*float64(p.MeanGapBT))
		arrivals[i] = churnArrival{
			at:   t,
			hold: 1 + int64(rng.ExpFloat64()*float64(p.MeanHoldBT)),
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
		if m <= 0 {
			continue
		}
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

// ChurnSweep runs the churn experiment over derived seeds.  Results
// come back in input order regardless of worker count, so the sweep's
// JSON encoding is bit-identical at any parallelism.
func ChurnSweep(base ChurnParams, seeds, workers int) ([]ChurnResult, error) {
	jobs := make([]runner.Job[ChurnResult], seeds)
	for i := range jobs {
		i := i
		jobs[i] = runner.Job[ChurnResult]{
			Name: fmt.Sprintf("churn-%02d", i),
			Seed: runner.DeriveSeed(base.Seed, i),
			Run: func(_ context.Context, seed int64) (ChurnResult, error) {
				p := base
				p.Seed = seed
				return Churn(p)
			},
		}
	}
	return sweep(jobs, workers)
}

// PrintChurn renders a churn sweep as a table, one row per seed.
func PrintChurn(w io.Writer, res []ChurnResult) {
	if len(res) == 0 {
		return
	}
	fmt.Fprintf(w, "Connection churn with in-band table reprogramming (%d switches, %d hosts)\n",
		res[0].Switches, res[0].Hosts)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "seed\tadmit/offer\tbusy\tadmit lat mean/max BT\tswaps\ttorn\tstale\tmoves\tMADs\tVL CoV")
	for _, r := range res {
		fmt.Fprintf(tw, "%d\t%d/%d\t%d\t%.0f/%d\t%d\t%d\t%d\t%d\t%d\t%.3f\n",
			r.Seed, r.Admitted, r.Offered, r.RejectedBusy,
			r.MeanAdmitLatencyBT, r.MaxAdmitLatencyBT,
			r.Reconfig.Swaps, r.Reconfig.TornAborts, r.Reconfig.StalePicks,
			r.TableMoves, r.ProgramMADs, r.MeanVLRateCoV)
	}
	tw.Flush()
}
