package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/fabric"
	"repro/internal/runner"
)

// SwitchModelRow summarizes one switch architecture of the
// switch-model ablation.  The companion work the paper builds on
// ("A Strategy to Manage Time Sensitive Traffic in InfiniBand")
// studied several switch models; the axis our simulator exposes is the
// internal speedup of the multiplexed crossbar — speedup 1 is the
// bare model of the paper's section 4.1, higher speedups decouple the
// input stage from the output link.
type SwitchModelRow struct {
	Speedup            int
	DeadlineMetPercent float64
	WorstDelayRatio    float64 // max delay/deadline over all packets
	MeanDelayRatio     float64
}

// AblationSwitchModels runs the large-packet evaluation across
// crossbar speedups on workers goroutines, one job per model.
func AblationSwitchModels(p Params, speedups []int, workers int) ([]SwitchModelRow, error) {
	jobs := make([]runner.Job[SwitchModelRow], len(speedups))
	for i, su := range speedups {
		jobs[i] = runner.Job[SwitchModelRow]{
			Name: fmt.Sprintf("switchmodel-x%d", su),
			Seed: p.Seed,
			Run: func(int64) (SwitchModelRow, error) {
				run, err := setupAndExecute(p, largePayload, func(cfg *fabric.Config) {
					cfg.CrossbarSpeedup = su
				})
				if err != nil {
					return SwitchModelRow{}, err
				}
				all := mergedDelay(run.Flows)
				return SwitchModelRow{
					Speedup:            su,
					DeadlineMetPercent: all.PercentMeetingDeadline(),
					WorstDelayRatio:    all.MaxRatio(),
					MeanDelayRatio:     all.MeanRatio(),
				}, nil
			},
		}
	}
	return runner.Sweep(jobs, workers)
}

// PrintSwitchModels renders the switch-model ablation.
func PrintSwitchModels(w io.Writer, rows []SwitchModelRow) {
	fmt.Fprintln(w, "Ablation — switch models (crossbar speedup), large packets")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "speedup\tdeadline met (%)\tworst delay/D\tmean delay/D")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.3f\t%.3f\t%.4f\n",
			r.Speedup, r.DeadlineMetPercent, r.WorstDelayRatio, r.MeanDelayRatio)
	}
	tw.Flush()
}
