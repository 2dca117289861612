package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/viz"
)

// Experiment is one experiment, declared once in registry: its base
// scenario at each scale, the scenario fields its run reads and those
// its sweep sets, and its run, which returns the table it prints and
// the report it writes.
type Experiment struct {
	// Base returns the base scenario at a scale, which a scenario
	// document edits; nil when the experiment runs none.
	Base func(Scale) Scenario
	// Reads names the scenario fields the run reads, Axis those its
	// sweep sets at every point (DecodeScenario's paths): a scenario
	// document may change a field only under Reads, not Axis.
	Reads, Axis []string
	// WallClock names the report's top-level JSON fields that hold
	// wall-clock measurements.
	WallClock []string
	exec      func(sc Scenario, opt Options) (*Report, error)
}

// Options are the settings of a run besides its scenario.
type Options struct {
	Scale      Scale // the preset of the experiment's axis
	Workers    int   // sweep goroutines; 0 is GOMAXPROCS
	Seeds      int   // churn's independent seeds
	HeadroomSL uint8 // the service level plan's headroom bisection probes
	// The evaluation views draw figures 4 and 5 as terminal charts too
	// under Viz, and build their report only under JSON: their tables
	// show every number of it.
	Viz, JSON bool
}

// Report is what a run prints: its table, and its JSON report when it
// has one.  A run that fails returns its error beside a report not to
// be used.
type Report struct {
	Table func(w io.Writer) error
	JSON  any
}

// Lookup returns the experiment named name, and whether there is one.
func Lookup(name string) (Experiment, bool) {
	e, ok := registry[name]
	return e, ok
}

// Run runs e on sc: e's base at opt.Scale with whatever edits a scenario
// document and the caller made, which sc.Validate(e.Axis...) accepts.
func (e Experiment) Run(sc Scenario, opt Options) (*Report, error) {
	return e.exec(sc, opt)
}

// registry is every experiment, by the name ibsim's -exp gives it.
var registry = map[string]Experiment{
	"table1": {exec: func(Scenario, Options) (*Report, error) {
		return &Report{Table: func(w io.Writer) error { printTable1(w); return nil }}, nil
	}},
	"table2":  evaluationView("table2"),
	"figure4": evaluationView("figure4"),
	"figure5": evaluationView("figure5"),
	"figure6": evaluationView("figure6"),
	"ablation-priority": {
		Base:  priorityScenario,
		Reads: []string{"Seed", "Topology", "Fabric", "WarmupIATs", "WindowIATs"},
		Axis:  []string{"Topology.Seed"},
		exec: func(sc Scenario, opt Options) (*Report, error) {
			res, err := ablationPrioritySplit(sc, opt.Workers)
			return tabled(printPrioritySplit, res, nil), err
		},
	},
	"ablation-fill": {
		Base: evaluationScenario, // its Seed
		exec: func(sc Scenario, opt Options) (*Report, error) {
			res, err := ablationFillPolicies(fillTraces, sc.Seed, opt.Workers)
			return tabled(printFillPolicies, res, nil), err
		},
	},
	"ablation-vl": {
		Base:  evaluationScenario,
		Reads: measuredReads,
		Axis:  []string{"Topology.Seed", "Fabric.PayloadBytes", "Fabric.DataVLs"},
		exec: func(sc Scenario, opt Options) (*Report, error) {
			rows, err := ablationVLCollapse(sc, []int{15, 8, 4}, opt.Workers)
			return tabled(printVLCollapse, rows, nil), err
		},
	},
	"ablation-switch": {
		Base:  evaluationScenario,
		Reads: measuredReads,
		Axis:  []string{"Topology.Seed", "Fabric.PayloadBytes", "Fabric.CrossbarSpeedup"},
		exec: func(sc Scenario, opt Options) (*Report, error) {
			rows, err := ablationSwitchModels(sc, []int{1, 2, 4}, opt.Workers)
			return tabled(printSwitchModels, rows, nil), err
		},
	},
	"vbr": {
		Base:  vbrScenario,
		Reads: measuredReads,
		Axis:  []string{"Topology.Seed"},
		exec: func(sc Scenario, opt Options) (*Report, error) {
			res, err := ablationVBR(sc, opt.Workers)
			return tabled(printVBR, res, nil), err
		},
	},
	"reconfig": {
		Base:  reconfigScenario,
		Reads: []string{"Seed", "Topology.Switches", "Fabric", "Inband", "Retry", "Conns", "FailAtBT", "HorizonBT"},
		Axis:  []string{"Topology.Seed", "Failures"},
		exec: func(sc Scenario, opt Options) (*Report, error) {
			res, err := reconfiguration(sc, opt.Workers)
			return tabled(printReconfig, res, res), err
		},
	},
	"scaling": {
		Base:  evaluationScenario,
		Reads: measuredReads,
		Axis:  []string{"Topology.Seed", "Topology.Switches", "Fabric.PayloadBytes"},
		exec: func(sc Scenario, opt Options) (*Report, error) {
			rows, err := scaling(sc, scalingSizes(opt.Scale), opt.Workers)
			return tabled(printScaling, rows, nil), err
		},
	},
	"churn": {
		Base:  churnScenario,
		Reads: lifecycleReads,
		Axis:  []string{"Topology.Seed"},
		exec: func(sc Scenario, opt Options) (*Report, error) {
			res, err := churnSweep(sc, opt.Seeds, opt.Workers)
			return tabled(printChurn, res, sweepReport[churnResult]{sc, nil, res}), err
		},
	},
	"faults": {
		Base:  faultsScenario,
		Reads: append(lifecycleReads, "SMPFaults", "Faults", "Flaps", "MeanFlapDownBT"),
		Axis:  []string{"Topology.Seed", "Faults.Drop", "Faults.Corrupt", "Flaps"},
		exec: func(sc Scenario, opt Options) (*Report, error) {
			res, err := faultsSweep(sc, opt.Workers)
			return tabled(printFaults, res, sweepReport[faultsResult]{sc.seeded(sc.Seed), nil, res}), err
		},
	},
	"failover": {
		Base:  failoverScenario,
		Reads: []string{"Seed", "Topology", "Fabric", "Inband", "Retry", "Conns", "FailAtBT", "HorizonBT", "Failures"},
		Axis:  []string{"Topology"},
		exec: func(sc Scenario, opt Options) (*Report, error) {
			res, err := failoverSweep(sc, failoverSpecs(opt.Scale), opt.Workers)
			return tabled(printFailover, res, sweepReport[failoverResult]{sc, nil, res}), err
		},
	},
	"scale": {
		Base:  scaleScenario,
		Reads: measuredReads,
		Axis:  gridAxis,
		exec: func(sc Scenario, opt Options) (*Report, error) {
			specs, loads := scaleGrid(opt.Scale)
			res, err := scaleSweep(sc, specs, loads, opt.Workers)
			return tabled(printScale, res, sweepReport[scaleResult]{sc, loads, res}), err
		},
	},
	"plan": {
		Base:      scaleScenario,
		Reads:     []string{"Seed", "Fabric.PayloadBytes", "MaxRejects"},
		Axis:      gridAxis,
		WallClock: []string{"timing"},
		exec: func(sc Scenario, opt Options) (*Report, error) {
			specs, loads, headroomMax := planGrid(opt.Scale)
			res, err := planSweep(sc, specs, loads, opt.HeadroomSL, headroomMax, opt.Workers)
			// The model's evaluation time per grid point: the evidence
			// that the plan answers in microseconds what the simulator
			// answers in minutes.
			timing := &struct {
				PointMicros []int64 `json:"pointMicros"`
				TotalMicros int64   `json:"totalMicros"`
			}{PointMicros: make([]int64, len(res))}
			for i, r := range res {
				timing.PointMicros[i] = r.ModelMicros
				timing.TotalMicros += r.ModelMicros
			}
			return tabled(printPlan, res, struct {
				Scenario    Scenario     `json:"scenario"`
				Loads       []float64    `json:"loads"`
				HeadroomSL  uint8        `json:"headroomSL"`
				HeadroomMax int          `json:"headroomMax"`
				Runs        []planResult `json:"runs"`
				Timing      any          `json:"timing,omitempty"`
			}{sc, loads, opt.HeadroomSL, headroomMax, res, timing}), err
		},
	},
	"hol": {
		Base:  scaleScenario,
		Reads: append(measuredReads, "Metrics"), // the VOQ counters
		Axis:  append(gridAxis, "Fabric.SwitchModel"),
		exec: func(sc Scenario, opt Options) (*Report, error) {
			specs, loads := scaleGrid(opt.Scale)
			res, err := holSweep(sc, specs, loads, holModels, opt.Workers)
			return tabled(printHOL, res, sweepReport[holResult]{sc, loads, res}), err
		},
	},
	"shardbench": {
		Base:      shardBenchScenario,
		Reads:     []string{"Seed", "Topology", "Fabric", "Load", "MaxRejects", "BEMbps", "HorizonBT"},
		WallClock: []string{"cpus", "runs"},
		exec: func(sc Scenario, opt Options) (*Report, error) {
			res, err := shardBench(sc)
			return tabled(func(w io.Writer, res []shardBenchResult) { printShardBench(w, sc, res) }, res, struct {
				Scenario Scenario `json:"scenario"`
				// CPUs bounds the achievable speedup at min(shards, CPUs):
				// rows measured on a single-core host show sync overhead.
				CPUs int                `json:"cpus"`
				Runs []shardBenchResult `json:"runs"`
			}{sc, runtime.NumCPU(), res}), err
		},
	},
	"all": evaluationView("all"),
}

// The scenario fields a measured run (execute) and a lifecycle run
// (runLifecycles) read.
var (
	measuredReads  = []string{"Seed", "Topology", "Fabric", "MaxRejects", "BEMbps", "WarmupIATs", "WindowIATs", "MinPackets"}
	lifecycleReads = []string{"Seed", "Topology", "Fabric", "Inband", "Retry", "Arrivals", "MeanGapBT", "MeanHoldBT", "SampleBT"}
)

// gridAxis is the axis of the structured-fabric grids (scaleGrid): each
// point sets the topology, the load and the best effort that scales
// with it.
var gridAxis = []string{"Topology", "Load", "BEMbps"}

// fillTraces is the number of request traces the fill-policy ablation
// replays.
const fillTraces = 50

// holModels are the switch models the hol sweep runs every cell under.
var holModels = []fabric.SwitchModel{fabric.ModelWRR, fabric.ModelVOQISLIP, fabric.ModelVOQMWM}

// tabled is the report of a run whose table print renders res.
func tabled[T any](print func(io.Writer, T), res T, report any) *Report {
	return &Report{Table: func(w io.Writer) error { print(w, res); return nil }, JSON: report}
}

// sweepReport is the JSON report of a sweep: the scenario the
// experiment ran, the loads of its grid when it has one, and one row
// per point.
type sweepReport[R any] struct {
	Scenario Scenario  `json:"scenario"`
	Loads    []float64 `json:"loads,omitempty"`
	Runs     []R       `json:"runs"`
}

// evaluationView is one view of the paired small/large-packet
// evaluation.  Every view runs the same simulation and reports the same
// JSON document; they differ in the tables they print, and all prints
// every table and figure followed by the priority and fill ablations.
func evaluationView(name string) Experiment {
	return Experiment{
		Base:  evaluationScenario,
		Reads: append(measuredReads, "Metrics", "Trace"),
		Axis:  []string{"Topology.Seed", "Fabric.PayloadBytes"},
		exec: func(sc Scenario, opt Options) (*Report, error) {
			ev, err := evaluate(sc, opt.Workers)
			if err != nil {
				return nil, err
			}
			r := newEvaluationReport(ev, sc.seeded(sc.Seed), opt.Scale)
			rep := &Report{Table: func(w io.Writer) error { return printEvaluation(w, r, name, opt) }}
			if opt.JSON {
				rep.JSON = r
			}
			return rep, nil
		},
	}
}

// printEvaluation prints the tables of one evaluation view, then the
// metrics dump when the runs were instrumented.
func printEvaluation(w io.Writer, r evaluationReport, which string, opt Options) error {
	all := which == "all"
	if all {
		printTable1(w)
		fmt.Fprintln(w)
	}
	if all || which == "table2" {
		printTable2(w, r.Table2)
		fmt.Fprintln(w)
		printSLBreakdown(w, "Small packets", r.BySL)
		fmt.Fprintln(w)
	}
	if all || which == "figure4" {
		printFigure4(w, "Figure 4a (small packets)", r.Figure4.Small)
		fmt.Fprintln(w)
		printFigure4(w, "Figure 4b (large packets)", r.Figure4.Large)
		fmt.Fprintln(w)
		if opt.Viz {
			fmt.Fprintln(w, "Figure 4b as CDF sparklines (thresholds D/32 .. D):")
			for _, s := range r.Figure4.Large {
				fmt.Fprintln(w, "  "+viz.CDFRow(fmt.Sprintf("SL %d", s.SL), s.Percent))
			}
			fmt.Fprintln(w)
		}
	}
	if all || which == "figure5" {
		printFigure5(w, "Figure 5 (small packets)", r.Figure5)
		fmt.Fprintln(w)
		printFigure5(w, "Figure 5 (large packets)", r.Figure5L)
		fmt.Fprintln(w)
		if opt.Viz {
			fmt.Fprintln(w, "Figure 5 jitter histograms (buckets -IAT .. +IAT):")
			for _, s := range r.Figure5 {
				fmt.Fprintf(w, "  SL %d %s\n", s.SL, viz.Spark(s.Percent[:], 100))
			}
			fmt.Fprintln(w)
		}
	}
	if all || which == "figure6" {
		printFigure6(w, r.Figure6)
		fmt.Fprintln(w)
	}
	if all {
		sc := priorityScenario(opt.Scale)
		sc.Seed = r.Scenario.Seed
		res, err := ablationPrioritySplit(sc, opt.Workers)
		if err != nil {
			return err
		}
		printPrioritySplit(w, res)
		fmt.Fprintln(w)
		fill, err := ablationFillPolicies(fillTraces, sc.Seed, opt.Workers)
		if err != nil {
			return err
		}
		printFillPolicies(w, fill)
	}
	if r.Scenario.Metrics {
		fmt.Fprintln(w, "Arbitration metrics (JSON):")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r.Metrics)
	}
	return nil
}

// evaluationReport is the JSON report of every evaluation view.
type evaluationReport struct {
	Scale      string            `json:"scale"`
	Scenario   Scenario          `json:"scenario"`
	Thresholds []float64         `json:"delayThresholds"`
	Table1     []table1Row       `json:"table1"`
	Table2     [2]table2Row      `json:"table2"`
	Figure4    figure4Result     `json:"figure4"`
	Figure5    []jitterSeries    `json:"figure5Small"`
	Figure5L   []jitterSeries    `json:"figure5Large"`
	Figure6    []bestWorstSeries `json:"figure6"`
	BySL       []slBreakdownRow  `json:"connectionsBySL"`

	// Metrics is present when the runs were instrumented (Metrics or
	// Trace): the per-run observability counters and, when tracing,
	// the tail of the arbitration event ring.
	Metrics *metricsDump `json:"metrics,omitempty"`
}

// metricsDump carries the counters of the paired evaluation runs.
type metricsDump struct {
	Small *runMetrics `json:"small,omitempty"`
	Large *runMetrics `json:"large,omitempty"`
}

// runMetrics is one run's counter snapshot plus its trace tail.
type runMetrics struct {
	Counters      metrics.Snapshot     `json:"counters"`
	Trace         []metrics.TraceEvent `json:"trace,omitempty"`
	TraceRecorded uint64               `json:"traceRecorded,omitempty"`
	TraceDropped  uint64               `json:"traceDropped,omitempty"`
}

// dumpRun extracts the metrics of one executed run; nil when the run
// was not instrumented.
func dumpRun(r *run) *runMetrics {
	if r.Net.Metrics == nil {
		return nil
	}
	d := &runMetrics{Counters: r.Net.Metrics.Snapshot()}
	if t := r.Net.Engine.Trace; t != nil {
		d.Trace, d.TraceRecorded, d.TraceDropped = t.Events(), t.Recorded(), t.Dropped()
	}
	return d
}

// newEvaluationReport is the JSON report of an executed evaluation of
// sc at scale s.
func newEvaluationReport(ev *evaluation, sc Scenario, s Scale) evaluationReport {
	r := evaluationReport{
		Scale:      s.String(),
		Scenario:   sc,
		Thresholds: stats.DelayFractions,
		Table1:     table1(),
		Table2:     ev.table2(),
		Figure4:    ev.figure4(),
		Figure5:    figure5For(ev.Small),
		Figure5L:   figure5For(ev.Large),
		Figure6:    ev.figure6(),
		BySL:       ev.Small.slBreakdown(),
	}
	if small, large := dumpRun(ev.Small), dumpRun(ev.Large); small != nil || large != nil {
		r.Metrics = &metricsDump{Small: small, Large: large}
	}
	return r
}
