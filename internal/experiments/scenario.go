package experiments

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/admission"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/routing/cdg"
	"repro/internal/sl"
	"repro/internal/subnet"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Scale is a preset size of an experiment's base scenario and axis.
type Scale int

const (
	Tiny  Scale = iota // unit tests and golden files
	Quick              // reduced scale: a few seconds to a minute
	Full               // the paper's scale
)

// String returns the name the -scale flag spells.
func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Quick:
		return "quick"
	}
	return "full"
}

// Scenario is one run: the fabric to build, the load to offer it, the
// control-plane events to put it through, how long to drive it and
// what to record.
//
// Seed is the run's point seed.  The fabric's Config.Seed is Seed (its
// random phases draw from Seed+0x5eed), the QoS source draws from
// Seed+1, the best-effort background and the link-flap schedule from
// Seed+2, and the SMP fault injector and the churn arrivals from Seed
// itself.  The topology is Topology.Generate(): an irregular fabric's
// wiring seed is Topology.Seed and nothing else.  An experiment whose
// wiring follows the run seed sets both at every point (seeded); one
// that fixes its wiring leaves Topology alone when the seed moves.
type Scenario struct {
	Seed     int64
	Topology topology.Spec
	// Fabric configures the switches and links.  build sets Switches
	// from the generated topology and Seed from the scenario's Seed;
	// every other field is used as given.
	Fabric fabric.Config

	// The QoS fill offer runs: ceil(Load·hosts) requests
	// (admission.FillLoad, which refuses a Load outside (0,
	// admission.MaxLoadFactor]), or, with Saturate, requests until
	// admission refuses MaxRejects in a row — the paper's "until no
	// more can be established" — without reading Load.  Either stops
	// after MaxRejects refusals in a row.
	Load       float64
	Saturate   bool
	MaxRejects int
	// BEMbps is the best-effort background per host, in Mbps; zero
	// offers none.
	BEMbps float64

	// Inband wires the subnet manager and its in-band programmer: every
	// table delta travels as SMPs on the control lane.
	Inband bool
	// Retry is the busy-hop policy of in-band admissions.
	Retry admission.RetryPolicy
	// Connection churn (runLifecycles): Arrivals connections with
	// exponential gaps of mean MeanGapBT each hold their reservation
	// for an exponential time of mean MeanHoldBT; SampleBT is the VL
	// bandwidth sampling window.
	Arrivals   int
	MeanGapBT  int64
	MeanHoldBT int64
	SampleBT   int64

	// SMPFaults attaches a fault injector dealing Faults' per-SMP
	// rates (its Seed is the scenario's) to the fabric and the in-band
	// programmer, which then delivers reliably, and the self-healing
	// auditor configured by Audit.  Flaps link-down windows of mean
	// length MeanFlapDownBT fall across the churn arrivals.
	SMPFaults      bool
	Faults         faults.Config
	Flaps          int
	MeanFlapDownBT int64
	Audit          subnet.AuditConfig

	// Link failures (failoverRun): Conns QoS admissions through the
	// in-band programmer, then a failure schedule whose first failure
	// falls at FailAtBT.  A positive FailAtBT enables the subnet
	// manager's recovery, which needs Inband and Fabric.FailoverEscape.
	Conns    int
	FailAtBT int64

	// WarmupIATs is the warm-up in interarrival times of the slowest
	// QoS flow; the measurement window then closes when that flow has
	// received MinPackets packets.  HorizonBT is the simulated length
	// of the runs that stop at a fixed time, in byte times.
	WarmupIATs int64
	MinPackets int
	HorizonBT  int64

	// Metrics attaches the observability counters; a positive Trace
	// also records the last Trace arbitration decisions, which needs a
	// single engine.
	Metrics bool
	Trace   int
}

// seeded returns sc at point seed seed with its irregular wiring drawn
// from the same seed: the seed rule of every experiment whose topology
// follows the run seed.
func (sc Scenario) seeded(seed int64) Scenario {
	sc.Seed, sc.Topology.Seed = seed, seed
	return sc
}

// at returns sc at one (spec, load) point of a structured-fabric grid:
// the QoS attempts and the best-effort Mbps per host both scale with
// load.
func (sc Scenario) at(spec topology.Spec, load float64, seed int64) Scenario {
	sc.Topology, sc.Load, sc.BEMbps, sc.Seed = spec, load, load, seed
	return sc
}

// irregular is the spec of the paper's randomly wired fabric.
func irregular(switches int, seed int64) topology.Spec {
	return topology.Spec{Class: topology.Irregular, Switches: switches, Seed: seed}
}

// Run is one built scenario: the network, its control plane and the
// flows offered to it.
type Run struct {
	Net     *fabric.Network
	Fill    admission.FillResult // the QoS fill's connections and counts
	Flows   []*fabric.Flow       // QoS flows, aligned with Fill.Admitted
	BEFlows []*fabric.Flow

	sc    Scenario
	proof cdg.Stats                // the routes' deadlock-freedom proof
	prog  *subnet.InbandProgrammer // with Inband
	aud   *subnet.Auditor          // with SMPFaults
	rec   *subnet.Recovery         // with a positive FailAtBT
}

// build wires sc's network in one fixed order: the topology and the
// fabric over it, the metrics and the trace ring, the proof that its
// routes are deadlock-free, and then, as sc asks for them, the subnet
// manager with the in-band programmer, the SMP fault injector with the
// auditor, and failure recovery.  It attaches no traffic: offer runs
// the QoS fill and the best effort, after whatever flows a driver adds
// first.
func build(sc Scenario) (*Run, error) {
	switch {
	case sc.Trace > 0 && sc.Fabric.Shards > 1:
		return nil, fmt.Errorf("experiments: -trace records one engine's arbitration decisions and cannot run with -shards %d", sc.Fabric.Shards)
	case !sc.Inband && (sc.SMPFaults || sc.FailAtBT > 0):
		return nil, errors.New("experiments: SMP faults and failure recovery need the in-band programmer")
	}
	topo, err := sc.Topology.Generate()
	if err != nil {
		return nil, err
	}
	cfg := sc.Fabric
	cfg.Switches, cfg.Seed = topo.NumSwitches, sc.Seed
	net, err := fabric.NewWithTopology(cfg, topo)
	if err != nil {
		return nil, err
	}
	r := &Run{Net: net, sc: sc}
	if sc.Metrics {
		net.EnableMetrics()
	}
	if sc.Trace > 0 {
		net.EnableTrace(sc.Trace)
	}
	if r.proof, err = cdg.Verify(topo, net.Routes); err != nil {
		return nil, err
	}
	if !sc.Inband {
		return r, nil
	}

	// Table programs travel in-band through the subnet manager, as
	// typed events on the control lane (the shared engine in
	// single-engine runs, the serialized barrier lane in parallel).
	m := subnet.NewManager(topo)
	m.Routes = net.Routes
	r.prog = subnet.NewInbandProgrammer(net.Ctrl, m)
	r.prog.Counters = net.ControlCounters()
	if net.Parallel() {
		r.prog.ShardOf = net.PortShard
		r.prog.HomeShard = net.PortShard(admission.SwitchPortID(m.HomeSwitch, 0))
	}
	net.Adm.SetProgrammer(r.prog)
	if sc.SMPFaults {
		fc := sc.Faults
		fc.Seed = sc.Seed
		inj := faults.New(fc)
		net.SetFaults(inj)
		r.prog.Faults = inj
		r.aud = subnet.NewAuditor(net.Ctrl, r.prog, sc.Audit)
		net.Adm.Down = r.aud.Quarantined
	}
	if sc.FailAtBT > 0 {
		if r.rec, err = m.EnableRecovery(net); err != nil {
			return nil, err
		}
		// EnableRecovery creates the injector the failure windows live
		// in when there is none; attached to the programmer, it selects
		// reliable delivery.
		r.prog.Faults = net.Faults
	}
	return r, nil
}

// offer loads a built run: the QoS fill, one CBR flow per admitted
// connection, then the best-effort background.
func (r *Run) offer() error {
	sc, net := r.sc, r.Net
	hosts := net.Topo.NumHosts()
	if sc.Saturate {
		r.Fill = net.Adm.Fill(traffic.NewSource(sl.DefaultLevels, hosts, sc.Seed+1), math.MaxInt, sc.MaxRejects)
	} else {
		var err error
		if r.Fill, err = net.Adm.FillLoad(sc.Load, sc.Seed, sc.MaxRejects); err != nil {
			return fmt.Errorf("experiments: %s: %w", sc.Topology.Label(), err)
		}
	}
	r.Flows = make([]*fabric.Flow, len(r.Fill.Admitted))
	for i, conn := range r.Fill.Admitted {
		r.Flows[i] = net.AddConnection(conn)
	}
	if sc.BEMbps > 0 {
		for _, be := range traffic.BestEffortBackground(hosts, sc.BEMbps, sc.Seed+2) {
			r.BEFlows = append(r.BEFlows, net.AddBestEffort(be))
		}
	}
	return nil
}

// loaded builds sc and offers its load.
func loaded(sc Scenario) (*Run, error) {
	r, err := build(sc)
	if err != nil {
		return nil, err
	}
	return r, r.offer()
}

// measured builds sc, offers its load and executes it.
func measured(sc Scenario) (*Run, error) {
	r, err := loaded(sc)
	if err != nil {
		return nil, err
	}
	return r, r.execute()
}

// execute is the steady-state protocol of every run that measures until
// a quota: start the flows, warm up for WarmupIATs interarrival periods
// of the slowest QoS flow, open the measurement window, and run until
// that flow has received MinPackets packets — with a generous time cap
// so a defect cannot hang the harness.  The fabric is audited at the
// end (Network.CheckInvariants).
func (r *Run) execute() error {
	net, flows := r.Net, r.Flows
	if len(flows) == 0 {
		return errors.New("experiments: no connections admitted")
	}
	if r.sc.MinPackets < 1 {
		return fmt.Errorf("experiments: a window of %d packets is out of range", r.sc.MinPackets)
	}
	slowest := flows[0]
	for _, f := range flows[1:] {
		if f.IAT > slowest.IAT {
			slowest = f
		}
	}
	net.Start()
	warmup := r.sc.WarmupIATs * slowest.IAT
	net.Run(warmup)
	net.StartMeasurement()
	target := int64(r.sc.MinPackets)
	timeCap := warmup + (target+8)*slowest.IAT*2
	net.RunWhile(func() bool {
		return slowest.Delivered < target && net.Now() < timeCap
	})
	return net.CheckInvariants()
}
