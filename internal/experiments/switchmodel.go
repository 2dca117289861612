package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// switchModelRow summarizes one switch architecture of the
// switch-model ablation.  The companion work the paper builds on
// ("A Strategy to Manage Time Sensitive Traffic in InfiniBand")
// studied several switch models; the axis our simulator exposes is the
// internal speedup of the multiplexed crossbar — speedup 1 is the
// bare model of the paper's section 4.1, higher speedups decouple the
// input stage from the output link.
type switchModelRow struct {
	Speedup            int
	DeadlineMetPercent float64
	WorstDelayRatio    float64 // max delay/deadline over all packets
	MeanDelayRatio     float64
}

// ablationSwitchModels runs the large-packet evaluation of sc across
// crossbar speedups on workers goroutines, one job per model.
func ablationSwitchModels(sc Scenario, speedups []int, workers int) ([]switchModelRow, error) {
	names := make([]string, len(speedups))
	for i, su := range speedups {
		names[i] = fmt.Sprintf("switchmodel-x%d", su)
	}
	return sameSeed(sc, names, workers, func(i int, sc Scenario) (switchModelRow, error) {
		sc.Fabric.PayloadBytes, sc.Fabric.CrossbarSpeedup = largePayload, speedups[i]
		r, err := measured(sc)
		if err != nil {
			return switchModelRow{}, err
		}
		all := mergedDelay(r.Flows)
		return switchModelRow{
			Speedup:            speedups[i],
			DeadlineMetPercent: all.PercentMeetingDeadline(),
			WorstDelayRatio:    all.MaxRatio(),
			MeanDelayRatio:     all.MeanRatio(),
		}, nil
	})
}

// printSwitchModels renders the switch-model ablation.
func printSwitchModels(w io.Writer, rows []switchModelRow) {
	fmt.Fprintln(w, "Ablation — switch models (crossbar speedup), large packets")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "speedup\tdeadline met (%)\tworst delay/D\tmean delay/D")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.3f\t%.3f\t%.4f\n",
			r.Speedup, r.DeadlineMetPercent, r.WorstDelayRatio, r.MeanDelayRatio)
	}
	tw.Flush()
}
