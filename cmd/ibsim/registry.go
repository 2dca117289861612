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
	// axis names the scenario fields the experiment's sweep sets at
	// every point, as experiments.DecodeScenario spells them: a
	// -scenario file may not change them.
	axis []string
	run  func(c *config) (result, error)
	// wallClock names the report's top-level JSON fields that hold
	// wall-clock measurements, which goldens leave out.
	wallClock []string
}

// result is what an experiment run prints: its table without -json,
// its report with it.  A run that fails returns its error beside a
// result that must not be used.
type result struct {
	table  func(w io.Writer) error
	report any
}

// scales are the -scale presets, smallest first.
var scales = []experiments.Scale{experiments.Tiny, experiments.Quick, experiments.Full}

// registry is every experiment ibsim runs, in the order -h and the
// unknown-experiment error list them.
var registry = []experiment{
	{
		name: "table1",
		run: func(*config) (result, error) {
			return text(experiments.PrintTable1), nil
		},
	},
	evaluation("table2"),
	evaluation("figure4"),
	evaluation("figure5"),
	evaluation("figure6"),
	{
		name:     "ablation-priority",
		flags:    []string{"seed"},
		scenario: experiments.EvaluationScenario,
		run: func(c *config) (result, error) {
			res, err := experiments.AblationPrioritySplit(c.sc.Seed, c.parallel)
			return text(func(w io.Writer) { experiments.PrintPrioritySplit(w, res) }), err
		},
	},
	{
		name:     "ablation-fill",
		flags:    []string{"seed"},
		scenario: experiments.EvaluationScenario,
		run: func(c *config) (result, error) {
			res, err := experiments.AblationFillPolicies(fillTraces, c.sc.Seed, c.parallel)
			return text(func(w io.Writer) { experiments.PrintFillPolicies(w, res) }), err
		},
	},
	{
		name:     "ablation-vl",
		flags:    []string{"seed", "switches", "shards", "scenario"},
		scenario: experiments.EvaluationScenario,
		axis:     []string{"Topology.Seed", "Fabric.PayloadBytes", "Fabric.DataVLs"},
		run: func(c *config) (result, error) {
			rows, err := experiments.AblationVLCollapse(c.sc, []int{15, 8, 4}, c.parallel)
			return text(func(w io.Writer) { experiments.PrintVLCollapse(w, rows) }), err
		},
	},
	{
		name:     "ablation-switch",
		flags:    []string{"seed", "switches", "shards", "scenario"},
		scenario: experiments.EvaluationScenario,
		axis:     []string{"Topology.Seed", "Fabric.PayloadBytes", "Fabric.CrossbarSpeedup"},
		run: func(c *config) (result, error) {
			rows, err := experiments.AblationSwitchModels(c.sc, []int{1, 2, 4}, c.parallel)
			return text(func(w io.Writer) { experiments.PrintSwitchModels(w, rows) }), err
		},
	},
	{
		name:     "vbr",
		flags:    []string{"seed"},
		scenario: experiments.EvaluationScenario,
		run: func(c *config) (result, error) {
			res, err := experiments.AblationVBR(c.sc.Seed, 4, 8, 4, 60, c.parallel)
			return text(func(w io.Writer) { experiments.PrintVBR(w, res) }), err
		},
	},
	{
		name:     "reconfig",
		flags:    []string{"seed", "switches", "json"},
		scenario: reconfigScenario,
		run: func(c *config) (result, error) {
			n := c.sc.Topology.Switches
			res, err := experiments.Reconfiguration(n, c.sc.Seed, 40*n, c.parallel)
			return withReport(func(w io.Writer) { experiments.PrintReconfig(w, res) }, res), err
		},
	},
	{
		name:     "scaling",
		flags:    []string{"seed", "shards", "scenario"},
		scenario: experiments.EvaluationScenario,
		axis:     []string{"Topology.Seed", "Topology.Switches", "Fabric.PayloadBytes"},
		run: func(c *config) (result, error) {
			rows, err := experiments.Scaling(c.sc, experiments.ScalingSizes(c.at), c.parallel)
			return text(func(w io.Writer) { experiments.PrintScaling(w, rows) }), err
		},
	},
	{
		name:     "churn",
		flags:    []string{"seed", "switches", "shards", "churn-seeds", "scenario", "json"},
		scenario: experiments.ChurnScenario,
		axis:     []string{"Topology.Seed"},
		run: func(c *config) (result, error) {
			res, err := experiments.ChurnSweep(c.sc, c.churnSeeds, c.parallel)
			return withReport(func(w io.Writer) { experiments.PrintChurn(w, res) }, report[experiments.ChurnResult]{c.sc, nil, res}), err
		},
	},
	{
		name:     "faults",
		flags:    []string{"seed", "switches", "shards", "scenario", "json"},
		scenario: experiments.FaultsScenario,
		axis:     []string{"Topology.Seed", "Faults.Drop", "Faults.Corrupt", "Flaps"},
		run: func(c *config) (result, error) {
			res, err := experiments.FaultsSweep(c.sc, c.parallel)
			return withReport(func(w io.Writer) { experiments.PrintFaults(w, res) }, report[experiments.FaultsResult]{c.sc, nil, res}), err
		},
	},
	{
		name:     "failover",
		flags:    []string{"seed", "scenario", "json"},
		scenario: experiments.FailoverScenario,
		axis:     []string{"Topology"},
		run: func(c *config) (result, error) {
			res, err := experiments.FailoverSweep(c.sc, experiments.FailoverSpecs(c.at), c.parallel)
			return withReport(func(w io.Writer) { experiments.PrintFailover(w, res) }, report[experiments.FailoverResult]{c.sc, nil, res}), err
		},
	},
	{
		name:     "scale",
		flags:    []string{"seed", "shards", "scenario", "json"},
		scenario: experiments.ScaleScenario,
		axis:     gridAxis,
		run: func(c *config) (result, error) {
			specs, loads := experiments.ScaleGrid(c.at)
			res, err := experiments.ScaleSweep(c.sc, specs, loads, c.parallel)
			return withReport(func(w io.Writer) { experiments.PrintScale(w, res) }, report[experiments.ScaleResult]{c.sc, loads, res}), err
		},
	},
	{
		name:     "plan",
		flags:    []string{"seed", "plan-headroom-sl", "scenario", "json"},
		scenario: experiments.ScaleScenario,
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
			return withReport(func(w io.Writer) { experiments.PrintPlan(w, res) }, struct {
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
		axis:     append(gridAxis, "Fabric.SwitchModel"),
		run: func(c *config) (result, error) {
			specs, loads := experiments.ScaleGrid(c.at)
			res, err := experiments.HOLSweep(c.sc, specs, loads, holModels, c.parallel)
			return withReport(func(w io.Writer) { experiments.PrintHOL(w, res) }, report[experiments.HOLResult]{c.sc, loads, res}), err
		},
	},
	{
		name:     "shardbench",
		flags:    []string{"seed", "shards", "scenario", "json"},
		scenario: experiments.ShardBenchScenario,
		run: func(c *config) (result, error) {
			res, err := experiments.ShardBench(c.sc)
			return withReport(func(w io.Writer) { experiments.PrintShardBench(w, c.sc, res) }, struct {
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
		axis:     []string{"Topology.Seed", "Fabric.PayloadBytes"},
		run: func(c *config) (result, error) {
			if c.asJSON && c.viz {
				return result{}, errors.New("-viz draws terminal charts, which -json does not print")
			}
			ev, err := experiments.Evaluate(c.sc, c.parallel)
			if err != nil {
				return result{}, err
			}
			return result{
				table:  func(w io.Writer) error { return printEvaluation(w, ev, name, c) },
				report: newEvaluationReport(ev, c.sc, c.scale),
			}, nil
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
		res, err := experiments.AblationPrioritySplit(c.sc.Seed, c.parallel)
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

// gridAxis is the axis of the structured-fabric grids (ScaleGrid): each
// point sets the topology, the load and the best effort that scales
// with it.
var gridAxis = []string{"Topology", "Load", "BEMbps"}

// fillTraces is the number of request traces the fill-policy ablation
// replays.
const fillTraces = 50

// holModels are the switch models the hol sweep runs every cell under.
var holModels = []fabric.SwitchModel{fabric.ModelWRR, fabric.ModelVOQISLIP, fabric.ModelVOQMWM}

// reconfigScenario is the evaluation's scenario at s on the smallest
// irregular fabric with a link that is not a cut edge at Tiny: three
// switches.
func reconfigScenario(s experiments.Scale) experiments.Scenario {
	sc := experiments.EvaluationScenario(s)
	if s == experiments.Tiny {
		sc.Topology.Switches = 3
	}
	return sc
}

// text is the result of an experiment that prints a table and has no
// JSON report.
func text(print func(io.Writer)) result {
	return result{table: func(w io.Writer) error {
		print(w)
		return nil
	}}
}

// withReport is the result of a sweep: its table is followed by a
// blank line and the report.
func withReport(print func(io.Writer), report any) result {
	return result{report: report, table: func(w io.Writer) error {
		print(w)
		fmt.Fprintln(w)
		return encodeIndented(w, report)
	}}
}

// report is the JSON report of a sweep: the scenario the entry ran,
// the loads of its grid when it has one, and one row per point.
type report[R any] struct {
	Scenario experiments.Scenario `json:"scenario"`
	Loads    []float64            `json:"loads,omitempty"`
	Runs     []R                  `json:"runs"`
}
