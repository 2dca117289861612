package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"

	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/viz"
)

// experiment describes one value of -exp: the flags it reads, its base
// scenario at each -scale, and how to run it.
type experiment struct {
	name string
	// flags names the flags the experiment reads besides commonFlags;
	// "json" among them means run returns a JSON report.
	flags []string
	// scenario returns the experiment's base scenario at a scale; nil
	// when it runs none.  parse decodes -scenario over it and applies
	// the flags (config.sc).
	scenario func(experiments.Scale) experiments.Scenario
	// reads names the scenario fields the run reads, axis those its
	// sweep sets at every point (experiments.DecodeScenario's paths): a
	// -scenario file may change a field only under reads, not axis.
	reads, axis []string
	run         func(c *config) (result, error)
	// wallClock names the report's top-level JSON fields that hold
	// wall-clock measurements, which goldens leave out.
	wallClock []string
}

// result is what an experiment run prints: its table, then its report
// after a blank line if it has one; under -json its report alone.  A
// run that fails returns its error beside a result not to be used.
type result struct {
	table  func(w io.Writer) error
	report any
}

// printed is the result of a table printer that cannot fail.
func printed(print func(io.Writer), report any) result {
	return result{func(w io.Writer) error { print(w); return nil }, report}
}

// scales are the -scale presets, smallest first.
var scales = []experiments.Scale{experiments.Tiny, experiments.Quick, experiments.Full}

// registry is every experiment ibsim runs, in the order -h and the
// unknown-experiment error list them.
var registry = []experiment{
	{
		name: "table1",
		run: func(*config) (result, error) {
			return printed(experiments.PrintTable1, nil), nil
		},
	},
	evaluation("table2"),
	evaluation("figure4"),
	evaluation("figure5"),
	evaluation("figure6"),
	{
		name:     "ablation-priority",
		flags:    []string{"seed", "scenario"},
		scenario: experiments.PriorityScenario,
		reads:    []string{"Seed", "Topology", "Fabric", "WarmupIATs", "WindowIATs"},
		axis:     []string{"Topology.Seed"},
		run: func(c *config) (result, error) {
			res, err := experiments.AblationPrioritySplit(c.sc, c.parallel)
			return printed(func(w io.Writer) { experiments.PrintPrioritySplit(w, res) }, nil), err
		},
	},
	{
		name:     "ablation-fill",
		flags:    []string{"seed"},
		scenario: experiments.EvaluationScenario,
		run: func(c *config) (result, error) {
			res, err := experiments.AblationFillPolicies(fillTraces, c.sc.Seed, c.parallel)
			return printed(func(w io.Writer) { experiments.PrintFillPolicies(w, res) }, nil), err
		},
	},
	{
		name:     "ablation-vl",
		flags:    []string{"seed", "switches", "shards", "scenario"},
		scenario: experiments.EvaluationScenario,
		reads:    measuredReads,
		axis:     []string{"Topology.Seed", "Fabric.PayloadBytes", "Fabric.DataVLs"},
		run: func(c *config) (result, error) {
			rows, err := experiments.AblationVLCollapse(c.sc, []int{15, 8, 4}, c.parallel)
			return printed(func(w io.Writer) { experiments.PrintVLCollapse(w, rows) }, nil), err
		},
	},
	{
		name:     "ablation-switch",
		flags:    []string{"seed", "switches", "shards", "scenario"},
		scenario: experiments.EvaluationScenario,
		reads:    measuredReads,
		axis:     []string{"Topology.Seed", "Fabric.PayloadBytes", "Fabric.CrossbarSpeedup"},
		run: func(c *config) (result, error) {
			rows, err := experiments.AblationSwitchModels(c.sc, []int{1, 2, 4}, c.parallel)
			return printed(func(w io.Writer) { experiments.PrintSwitchModels(w, rows) }, nil), err
		},
	},
	{
		name:     "vbr",
		flags:    []string{"seed", "scenario"},
		scenario: experiments.VBRScenario,
		reads:    measuredReads,
		axis:     []string{"Topology.Seed"},
		run: func(c *config) (result, error) {
			res, err := experiments.AblationVBR(c.sc, c.parallel)
			return printed(func(w io.Writer) { experiments.PrintVBR(w, res) }, nil), err
		},
	},
	{
		name:     "reconfig",
		flags:    []string{"seed", "switches", "scenario", "json"},
		scenario: experiments.ReconfigScenario,
		reads:    []string{"Seed", "Topology.Switches", "Fabric", "Inband", "Retry", "Conns", "FailAtBT", "HorizonBT"},
		axis:     []string{"Topology.Seed", "Failures"},
		run: func(c *config) (result, error) {
			res, err := experiments.Reconfiguration(c.sc, c.parallel)
			return printed(func(w io.Writer) { experiments.PrintReconfig(w, res) }, res), err
		},
	},
	{
		name:     "scaling",
		flags:    []string{"seed", "shards", "scenario"},
		scenario: experiments.EvaluationScenario,
		reads:    measuredReads,
		axis:     []string{"Topology.Seed", "Topology.Switches", "Fabric.PayloadBytes"},
		run: func(c *config) (result, error) {
			rows, err := experiments.Scaling(c.sc, experiments.ScalingSizes(c.at), c.parallel)
			return printed(func(w io.Writer) { experiments.PrintScaling(w, rows) }, nil), err
		},
	},
	{
		name:     "churn",
		flags:    []string{"seed", "switches", "shards", "churn-seeds", "scenario", "json"},
		scenario: experiments.ChurnScenario,
		reads:    lifecycleReads,
		axis:     []string{"Topology.Seed"},
		run: func(c *config) (result, error) {
			res, err := experiments.ChurnSweep(c.sc, c.churnSeeds, c.parallel)
			return printed(func(w io.Writer) { experiments.PrintChurn(w, res) }, report[experiments.ChurnResult]{c.sc, nil, res}), err
		},
	},
	{
		name:     "faults",
		flags:    []string{"seed", "switches", "shards", "scenario", "json"},
		scenario: experiments.FaultsScenario,
		reads:    append(lifecycleReads, "SMPFaults", "Faults", "Flaps", "MeanFlapDownBT", "Audit"),
		axis:     []string{"Topology.Seed", "Faults.Drop", "Faults.Corrupt", "Flaps"},
		run: func(c *config) (result, error) {
			res, err := experiments.FaultsSweep(c.sc, c.parallel)
			return printed(func(w io.Writer) { experiments.PrintFaults(w, res) }, report[experiments.FaultsResult]{wiredBySeed(c.sc), nil, res}), err
		},
	},
	{
		name:     "failover",
		flags:    []string{"seed", "scenario", "json"},
		scenario: experiments.FailoverScenario,
		reads:    []string{"Seed", "Topology", "Fabric", "Inband", "Retry", "Conns", "FailAtBT", "HorizonBT", "Failures"},
		axis:     []string{"Topology"},
		run: func(c *config) (result, error) {
			res, err := experiments.FailoverSweep(c.sc, experiments.FailoverSpecs(c.at), c.parallel)
			return printed(func(w io.Writer) { experiments.PrintFailover(w, res) }, report[experiments.FailoverResult]{c.sc, nil, res}), err
		},
	},
	{
		name:     "scale",
		flags:    []string{"seed", "shards", "scenario", "json"},
		scenario: experiments.ScaleScenario,
		reads:    measuredReads,
		axis:     gridAxis,
		run: func(c *config) (result, error) {
			specs, loads := experiments.ScaleGrid(c.at)
			res, err := experiments.ScaleSweep(c.sc, specs, loads, c.parallel)
			return printed(func(w io.Writer) { experiments.PrintScale(w, res) }, report[experiments.ScaleResult]{c.sc, loads, res}), err
		},
	},
	{
		name:     "plan",
		flags:    []string{"seed", "plan-headroom-sl", "scenario", "json"},
		scenario: experiments.ScaleScenario,
		reads:    []string{"Seed", "Fabric.PayloadBytes", "MaxRejects"},
		axis:     gridAxis,
		run: func(c *config) (result, error) {
			specs, loads, headroomMax := experiments.PlanGrid(c.at)
			headroomSL := uint8(c.headroomSL)
			res, err := experiments.PlanSweep(c.sc, specs, loads, headroomSL, headroomMax, c.parallel)
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
			return printed(func(w io.Writer) { experiments.PrintPlan(w, res) }, struct {
				Scenario    experiments.Scenario     `json:"scenario"`
				Loads       []float64                `json:"loads"`
				HeadroomSL  uint8                    `json:"headroomSL"`
				HeadroomMax int                      `json:"headroomMax"`
				Runs        []experiments.PlanResult `json:"runs"`
				Timing      any                      `json:"timing,omitempty"`
			}{c.sc, loads, headroomSL, headroomMax, res, timing}), err
		},
		wallClock: []string{"timing"},
	},
	{
		name:     "hol",
		flags:    []string{"seed", "shards", "scenario", "json"},
		scenario: experiments.ScaleScenario,
		reads:    append(measuredReads, "Metrics"), // the VOQ counters
		axis:     append(gridAxis, "Fabric.SwitchModel"),
		run: func(c *config) (result, error) {
			specs, loads := experiments.ScaleGrid(c.at)
			res, err := experiments.HOLSweep(c.sc, specs, loads, holModels, c.parallel)
			return printed(func(w io.Writer) { experiments.PrintHOL(w, res) }, report[experiments.HOLResult]{c.sc, loads, res}), err
		},
	},
	{
		name:     "shardbench",
		flags:    []string{"seed", "shards", "scenario", "json"},
		scenario: experiments.ShardBenchScenario,
		reads:    []string{"Seed", "Topology", "Fabric", "Load", "MaxRejects", "BEMbps", "HorizonBT"},
		run: func(c *config) (result, error) {
			res, err := experiments.ShardBench(c.sc)
			return printed(func(w io.Writer) { experiments.PrintShardBench(w, c.sc, res) }, struct {
				Scenario experiments.Scenario `json:"scenario"`
				// CPUs bounds the achievable speedup at min(shards, CPUs):
				// rows measured on a single-core host show sync overhead.
				CPUs int                            `json:"cpus"`
				Runs []experiments.ShardBenchResult `json:"runs"`
			}{c.sc, runtime.NumCPU(), res}), err
		},
		wallClock: []string{"cpus", "runs"},
	},
	evaluation("all"),
}

// evaluation is the entry of one view of the paired small/large-packet
// evaluation.  Every view runs the same simulation and reports the same
// -json document; they differ in the tables they print, and all prints
// every table and figure followed by the priority and fill ablations.
func evaluation(name string) experiment {
	flags := []string{"seed", "switches", "shards", "metrics", "trace", "scenario", "json"}
	if name == "figure4" || name == "figure5" || name == "all" {
		flags = append(flags, "viz")
	}
	return experiment{
		name:     name,
		flags:    flags,
		scenario: experiments.EvaluationScenario,
		reads:    append(measuredReads, "Metrics", "Trace"),
		axis:     []string{"Topology.Seed", "Fabric.PayloadBytes"},
		run: func(c *config) (result, error) {
			if c.asJSON && c.viz {
				return result{}, errors.New("-viz draws terminal charts, which -json does not print")
			}
			ev, err := experiments.Evaluate(c.sc, c.parallel)
			if err != nil {
				return result{}, err
			}
			res := result{table: func(w io.Writer) error { return printEvaluation(w, ev, name, c) }}
			if c.asJSON { // the tables show every number of the report
				res.report = newEvaluationReport(ev, wiredBySeed(c.sc), c.scale)
			}
			return res, nil
		},
	}
}

// printEvaluation prints the tables of one evaluation view, then the
// metrics dump when the runs were instrumented.
func printEvaluation(w io.Writer, ev *experiments.Evaluation, which string, c *config) error {
	all := which == "all"
	if all {
		experiments.PrintTable1(w)
		fmt.Fprintln(w)
	}
	if all || which == "table2" {
		experiments.PrintTable2(w, ev.Table2())
		fmt.Fprintln(w)
		experiments.PrintSLBreakdown(w, "Small packets", ev.Small.SLBreakdown())
		fmt.Fprintln(w)
	}
	if all || which == "figure4" {
		f4 := ev.Figure4()
		experiments.PrintFigure4(w, "Figure 4a (small packets)", f4.Small)
		fmt.Fprintln(w)
		experiments.PrintFigure4(w, "Figure 4b (large packets)", f4.Large)
		fmt.Fprintln(w)
		if c.viz {
			fmt.Fprintln(w, "Figure 4b as CDF sparklines (thresholds D/32 .. D):")
			for _, s := range f4.Large {
				fmt.Fprintln(w, "  "+viz.CDFRow(fmt.Sprintf("SL %d", s.SL), s.Percent))
			}
			fmt.Fprintln(w)
		}
	}
	if all || which == "figure5" {
		experiments.PrintFigure5(w, "Figure 5 (small packets)", ev.Figure5())
		fmt.Fprintln(w)
		experiments.PrintFigure5(w, "Figure 5 (large packets)", experiments.Figure5For(ev.Large))
		fmt.Fprintln(w)
		if c.viz {
			fmt.Fprintln(w, "Figure 5 jitter histograms (buckets -IAT .. +IAT):")
			for _, s := range ev.Figure5() {
				fmt.Fprintf(w, "  SL %d %s\n", s.SL, viz.Spark(s.Percent[:], 100))
			}
			fmt.Fprintln(w)
		}
	}
	if all || which == "figure6" {
		experiments.PrintFigure6(w, ev.Figure6())
		fmt.Fprintln(w)
	}
	if all {
		sc := experiments.PriorityScenario(c.at)
		sc.Seed = c.sc.Seed
		res, err := experiments.AblationPrioritySplit(sc, c.parallel)
		if err != nil {
			return err
		}
		experiments.PrintPrioritySplit(w, res)
		fmt.Fprintln(w)
		fill, err := experiments.AblationFillPolicies(fillTraces, c.sc.Seed, c.parallel)
		if err != nil {
			return err
		}
		experiments.PrintFillPolicies(w, fill)
	}
	if c.sc.Metrics {
		fmt.Fprintln(w, "Arbitration metrics (JSON):")
		return encodeIndented(w, dumpEvaluation(ev))
	}
	return nil
}

// The scenario fields a measured run (experiments' execute) and a
// churn run read.
var (
	measuredReads  = []string{"Seed", "Topology", "Fabric", "MaxRejects", "BEMbps", "WarmupIATs", "WindowIATs", "MinPackets"}
	lifecycleReads = []string{"Seed", "Topology", "Fabric", "Inband", "Retry", "Arrivals", "MeanGapBT", "MeanHoldBT", "SampleBT"}
)

// gridAxis is the axis of the structured-fabric grids (ScaleGrid): each
// point sets the topology, the load and the best effort that scales
// with it.
var gridAxis = []string{"Topology", "Load", "BEMbps"}

// fillTraces is the number of request traces the fill-policy ablation
// replays.
const fillTraces = 50

// holModels are the switch models the hol sweep runs every cell under.
var holModels = []fabric.SwitchModel{fabric.ModelWRR, fabric.ModelVOQISLIP, fabric.ModelVOQMWM}

// wiredBySeed is sc as the runs of an entry that wires its fabric from
// the run seed use it (experiments.Evaluate, FaultsSweep): the wiring
// seed its report shows is Seed.
func wiredBySeed(sc experiments.Scenario) experiments.Scenario {
	sc.Topology.Seed = sc.Seed
	return sc
}

// report is the JSON report of a sweep: the scenario the entry ran,
// the loads of its grid when it has one, and one row per point.
type report[R any] struct {
	Scenario experiments.Scenario `json:"scenario"`
	Loads    []float64            `json:"loads,omitempty"`
	Runs     []R                  `json:"runs"`
}
