package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"

	"repro/internal/experiments"
	"repro/internal/topology"
	"repro/internal/viz"
)

// experiment describes one value of -exp: the flags it reads, its
// parameters at each -scale, and how to run it.
type experiment struct {
	name string
	// flags names the flags the experiment reads besides commonFlags;
	// "json" among them means run returns a JSON report.
	flags []string
	// preset returns the experiment's parameters at one of scales; nil
	// when it has none.
	preset func(scale string) any
	run    func(c *config) (result, error)
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
var scales = []string{"tiny", "quick", "full"}

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
		name:   "ablation-priority",
		flags:  []string{"seed"},
		preset: paramsPresets,
		run: func(c *config) (result, error) {
			res, err := experiments.AblationPrioritySplit(c.params().Seed, c.parallel)
			return text(func(w io.Writer) { experiments.PrintPrioritySplit(w, res) }), err
		},
	},
	{
		name:   "ablation-fill",
		flags:  []string{"seed", "traces"},
		preset: paramsPresets,
		run: func(c *config) (result, error) {
			res, err := experiments.AblationFillPolicies(c.traces, c.params().Seed, c.parallel)
			return text(func(w io.Writer) { experiments.PrintFillPolicies(w, res) }), err
		},
	},
	{
		name:   "ablation-vl",
		flags:  []string{"seed", "switches", "shards", "shard-det"},
		preset: paramsPresets,
		run: func(c *config) (result, error) {
			rows, err := experiments.AblationVLCollapse(c.params(), []int{15, 8, 4}, c.parallel)
			return text(func(w io.Writer) { experiments.PrintVLCollapse(w, rows) }), err
		},
	},
	{
		name:   "ablation-switch",
		flags:  []string{"seed", "switches", "shards", "shard-det"},
		preset: paramsPresets,
		run: func(c *config) (result, error) {
			rows, err := experiments.AblationSwitchModels(c.params(), []int{1, 2, 4}, c.parallel)
			return text(func(w io.Writer) { experiments.PrintSwitchModels(w, rows) }), err
		},
	},
	{
		name:   "vbr",
		flags:  []string{"seed"},
		preset: paramsPresets,
		run: func(c *config) (result, error) {
			res, err := experiments.AblationVBR(c.params().Seed, 4, 8, 4, 60, c.parallel)
			return text(func(w io.Writer) { experiments.PrintVBR(w, res) }), err
		},
	},
	{
		name:   "reconfig",
		flags:  []string{"seed", "switches", "json"},
		preset: presets(reconfigTiny, experiments.Quick, experiments.Full),
		run: func(c *config) (result, error) {
			p := c.params()
			res, err := experiments.Reconfiguration(p.Switches, p.Seed, 40*p.Switches, c.parallel)
			return withReport(func(w io.Writer) { experiments.PrintReconfig(w, res) }, res), err
		},
	},
	{
		name:   "scaling",
		flags:  []string{"seed", "sizes", "shards", "shard-det"},
		preset: paramsPresets,
		run: func(c *config) (result, error) {
			ns, err := parseSizes(c.sizes)
			if err != nil {
				return result{}, fmt.Errorf("-sizes: %w", err)
			}
			rows, err := experiments.Scaling(c.params(), ns, c.parallel)
			return text(func(w io.Writer) { experiments.PrintScaling(w, rows) }), err
		},
	},
	{
		name:   "churn",
		flags:  []string{"seed", "switches", "shards", "shard-det", "churn-seeds", "json"},
		preset: presets(experiments.ChurnTiny, experiments.ChurnQuick, experiments.ChurnQuick),
		run: func(c *config) (result, error) {
			base := c.preset.(experiments.ChurnParams)
			override(&base.Seed, c.seed)
			override(&base.Switches, c.switches)
			base.Shards, base.ShardDet = c.shards, c.shardDet
			res, err := experiments.ChurnSweep(base, c.churnSeeds, c.parallel)
			return withReport(func(w io.Writer) { experiments.PrintChurn(w, res) },
				controlReport[experiments.ChurnResult]{base.Switches, base.Seed, base.Arrivals, res}), err
		},
	},
	{
		name:   "faults",
		flags:  []string{"seed", "switches", "shards", "shard-det", "json"},
		preset: presets(experiments.FaultsTiny, experiments.FaultsQuick, experiments.FaultsQuick),
		run: func(c *config) (result, error) {
			base := c.preset.(experiments.FaultParams)
			override(&base.Churn.Seed, c.seed)
			override(&base.Churn.Switches, c.switches)
			base.Churn.Shards, base.Churn.ShardDet = c.shards, c.shardDet
			res, err := experiments.FaultsSweep(base, c.parallel)
			return withReport(func(w io.Writer) { experiments.PrintFaults(w, res) },
				controlReport[experiments.FaultsResult]{base.Churn.Switches, base.Churn.Seed, base.Churn.Arrivals, res}), err
		},
	},
	{
		name:   "failover",
		flags:  []string{"seed", "shards", "json"},
		preset: presets(experiments.FailoverTiny, experiments.FailoverQuick, experiments.FailoverQuick),
		run: func(c *config) (result, error) {
			base := c.preset.(experiments.FailoverParams)
			override(&base.Seed, c.seed)
			base.Shards = c.shards
			res, err := experiments.FailoverSweep(base, c.parallel)
			return withReport(func(w io.Writer) { experiments.PrintFailover(w, res) }, struct {
				BaseSeed int64                        `json:"baseSeed"`
				Payload  int                          `json:"payload"`
				Conns    int                          `json:"conns"`
				FailAtBT int64                        `json:"failAtBT"`
				Runs     []experiments.FailoverResult `json:"runs"`
			}{base.Seed, base.Payload, base.Conns, base.FailAtBT, res}), err
		},
	},
	{
		name:   "scale",
		flags:  []string{"seed", "shards", "shard-det", "json"},
		preset: presets(experiments.ScaleTiny, experiments.ScaleQuick, experiments.ScaleQuick),
		run: func(c *config) (result, error) {
			base := c.preset.(experiments.ScaleParams)
			override(&base.Seed, c.seed)
			base.Shards, base.ShardDet = c.shards, c.shardDet
			res, err := experiments.ScaleSweep(base, c.parallel)
			return withReport(func(w io.Writer) { experiments.PrintScale(w, res) }, struct {
				BaseSeed int64                     `json:"baseSeed"`
				Loads    []float64                 `json:"loads"`
				Payload  int                       `json:"payload"`
				Runs     []experiments.ScaleResult `json:"runs"`
			}{base.Seed, base.Loads, base.Payload, res}), err
		},
	},
	{
		name:   "plan",
		flags:  []string{"seed", "plan-headroom-sl", "json"},
		preset: presets(experiments.PlanTiny, experiments.PlanQuick, experiments.PlanQuick),
		run: func(c *config) (result, error) {
			base := c.preset.(experiments.PlanParams)
			override(&base.Seed, c.seed)
			base.HeadroomSL = uint8(c.headroomSL)
			res, err := experiments.PlanSweep(base, c.parallel)
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
				BaseSeed    int64                    `json:"baseSeed"`
				Loads       []float64                `json:"loads"`
				Payload     int                      `json:"payload"`
				HeadroomSL  uint8                    `json:"headroomSL"`
				HeadroomMax int                      `json:"headroomMax"`
				Runs        []experiments.PlanResult `json:"runs"`
				Timing      any                      `json:"timing,omitempty"`
			}{base.Seed, base.Loads, base.Payload, base.HeadroomSL, base.HeadroomMax, res, timing}), err
		},
		wallClock: []string{"timing"},
	},
	{
		name:   "hol",
		flags:  []string{"seed", "islip-iters", "shards", "shard-det", "json"},
		preset: presets(experiments.HOLTiny, experiments.HOLQuick, experiments.HOLQuick),
		run: func(c *config) (result, error) {
			base := c.preset.(experiments.HOLParams)
			override(&base.Seed, c.seed)
			base.ISLIPIters = c.islipIters
			base.Shards, base.ShardDet = c.shards, c.shardDet
			res, err := experiments.HOLSweep(base, c.parallel)
			return withReport(func(w io.Writer) { experiments.PrintHOL(w, res) }, struct {
				BaseSeed   int64                   `json:"baseSeed"`
				Loads      []float64               `json:"loads"`
				Payload    int                     `json:"payload"`
				ISLIPIters int                     `json:"islipIters"`
				Runs       []experiments.HOLResult `json:"runs"`
			}{base.Seed, base.Loads, base.Payload, base.ISLIPIters, res}), err
		},
	},
	{
		name: "shardbench",
		flags: []string{"seed", "bench-class", "bench-k", "bench-a", "bench-p", "bench-h",
			"bench-shards", "bench-horizon", "json"},
		run: func(c *config) (result, error) {
			bp := experiments.ShardBenchDefault()
			override(&bp.Seed, c.seed)
			override(&bp.HorizonBT, c.benchHorizon)
			switch c.benchClass {
			case "fattree":
				bp.Spec = topology.Spec{Class: topology.FatTree, K: c.benchK}
			case "dragonfly":
				bp.Spec = topology.Spec{Class: topology.Dragonfly, A: c.benchA, P: c.benchP, H: c.benchH}
			default:
				return result{}, fmt.Errorf("unknown -bench-class %q (want fattree or dragonfly)", c.benchClass)
			}
			counts, err := parseSizes(c.benchShards)
			if err != nil {
				return result{}, fmt.Errorf("-bench-shards: %w", err)
			}
			bp.Shards = counts
			res, err := experiments.ShardBench(bp)
			return withReport(func(w io.Writer) { experiments.PrintShardBench(w, bp, res) }, struct {
				Topology  string  `json:"topology"`
				Load      float64 `json:"load"`
				Seed      int64   `json:"seed"`
				Payload   int     `json:"payload"`
				HorizonBT int64   `json:"horizonBT"`
				// CPUs bounds the achievable speedup at min(shards, CPUs):
				// rows measured on a single-core host show sync overhead.
				CPUs int                            `json:"cpus"`
				Runs []experiments.ShardBenchResult `json:"runs"`
			}{bp.Spec.Label(), bp.Load, bp.Seed, bp.Payload, bp.HorizonBT, runtime.NumCPU(), res}), err
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
	flags := []string{"seed", "switches", "shards", "shard-det", "metrics", "trace", "json"}
	if name == "figure4" || name == "figure5" || name == "all" {
		flags = append(flags, "viz")
	}
	return experiment{
		name:   name,
		flags:  flags,
		preset: paramsPresets,
		run: func(c *config) (result, error) {
			if c.asJSON && c.viz {
				return result{}, errors.New("-viz draws terminal charts, which -json does not print")
			}
			p := c.params()
			ev, err := experiments.Evaluate(p, c.parallel)
			if err != nil {
				return result{}, err
			}
			return result{
				table:  func(w io.Writer) error { return printEvaluation(w, ev, name, c) },
				report: newEvaluationReport(ev, p, c.scale),
			}, nil
		},
	}
}

// printEvaluation prints the tables of one evaluation view, then the
// metrics dump when the runs were instrumented.
func printEvaluation(w io.Writer, ev *experiments.Evaluation, which string, c *config) error {
	p := c.params()
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
		res, err := experiments.AblationPrioritySplit(p.Seed, c.parallel)
		if err != nil {
			return err
		}
		experiments.PrintPrioritySplit(w, res)
		fmt.Fprintln(w)
		fill, err := experiments.AblationFillPolicies(50, p.Seed, c.parallel)
		if err != nil {
			return err
		}
		experiments.PrintFillPolicies(w, fill)
	}
	if p.Metrics {
		fmt.Fprintln(w, "Arbitration metrics (JSON):")
		return encodeIndented(w, dumpEvaluation(ev))
	}
	return nil
}

// paramsPresets are the evaluation's parameters, which the ablations
// built on it share.
var paramsPresets = presets(experiments.Tiny, experiments.Quick, experiments.Full)

// reconfigTiny is the evaluation's tiny preset on the smallest
// irregular fabric with a link that is not a cut edge: three switches.
func reconfigTiny() experiments.Params {
	p := experiments.Tiny()
	p.Switches = 3
	return p
}

// presets maps each of scales onto a parameter constructor.
func presets[P any](tiny, quick, full func() P) func(string) any {
	return func(scale string) any {
		switch scale {
		case "tiny":
			return tiny()
		case "quick":
			return quick()
		}
		return full()
	}
}

// params is the evaluation preset with the -seed, -switches, -metrics,
// -trace, -shards and -shard-det overrides applied.  A flag the entry
// does not read is at its default, which changes nothing.
func (c *config) params() experiments.Params {
	p := c.preset.(experiments.Params)
	override(&p.Seed, c.seed)
	override(&p.Switches, c.switches)
	p.Metrics = c.metrics || c.trace > 0
	p.TraceEvents = c.trace
	p.Shards, p.ShardDet = c.shards, c.shardDet
	return p
}

// override replaces *dst with v unless v is zero, the "keep the
// preset's" value of the overriding flags.
func override[T comparable](dst *T, v T) {
	var zero T
	if v != zero {
		*dst = v
	}
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

// controlReport is the JSON report of the churn and faults sweeps.
type controlReport[R any] struct {
	Switches int   `json:"switches"`
	BaseSeed int64 `json:"baseSeed"`
	Arrivals int   `json:"arrivals"`
	Runs     []R   `json:"runs"`
}
