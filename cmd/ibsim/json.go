package main

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// jsonReport is the machine-readable form of a full evaluation,
// emitted by ibsim -json for every evaluation view.
type jsonReport struct {
	Scale      string                        `json:"scale"`
	Switches   int                           `json:"switches"`
	Seed       int64                         `json:"seed"`
	Thresholds []float64                     `json:"delayThresholds"`
	Table1     []experiments.Table1Row       `json:"table1"`
	Table2     [2]experiments.Table2Row      `json:"table2"`
	Figure4    experiments.Figure4Result     `json:"figure4"`
	Figure5    []experiments.JitterSeries    `json:"figure5Small"`
	Figure5L   []experiments.JitterSeries    `json:"figure5Large"`
	Figure6    []experiments.BestWorstSeries `json:"figure6"`
	BySL       []experiments.SLBreakdownRow  `json:"connectionsBySL"`

	// Metrics is present when -metrics (or -trace) was given: the
	// per-run observability counters and, when tracing, the tail of
	// the arbitration event ring.
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
func dumpRun(run *experiments.Run) *runMetrics {
	if run == nil || run.Net.Metrics == nil {
		return nil
	}
	d := &runMetrics{Counters: run.Net.Metrics.Snapshot()}
	if t := run.Net.Engine.Trace; t != nil {
		d.Trace = t.Events()
		d.TraceRecorded = t.Recorded()
		d.TraceDropped = t.Dropped()
	}
	return d
}

// dumpEvaluation collects the metrics of both runs; nil when neither
// was instrumented.
func dumpEvaluation(ev *experiments.Evaluation) *metricsDump {
	small, large := dumpRun(ev.Small), dumpRun(ev.Large)
	if small == nil && large == nil {
		return nil
	}
	return &metricsDump{Small: small, Large: large}
}

// newEvaluationReport is the -json document of an executed evaluation.
func newEvaluationReport(ev *experiments.Evaluation, sc experiments.Scenario, scale string) jsonReport {
	return jsonReport{
		Scale:      scale,
		Switches:   sc.Topology.Switches,
		Seed:       sc.Seed,
		Thresholds: stats.DelayFractions,
		Table1:     experiments.Table1(),
		Table2:     ev.Table2(),
		Figure4:    ev.Figure4(),
		Figure5:    ev.Figure5(),
		Figure5L:   experiments.Figure5For(ev.Large),
		Figure6:    ev.Figure6(),
		BySL:       ev.Small.SLBreakdown(),
		Metrics:    dumpEvaluation(ev),
	}
}

func encodeIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	return nil
}
