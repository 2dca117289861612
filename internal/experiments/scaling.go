package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/runner"
	"repro/internal/stats"
)

// ScalingRow summarizes one network size of the scaling sweep; the
// paper evaluates 8 to 64 switches and reports "the results are
// similar" across sizes.
type ScalingRow struct {
	Switches           int
	Hosts              int
	Connections        int
	DeadlineMetPercent float64
	CentralJitter      float64 // % of packets in the central interval
	HostUtilization    float64
	DeliveredPerNode   float64
}

// Scaling runs the small-packet evaluation across the given network
// sizes on workers goroutines, one job per size.
func Scaling(p Params, sizes []int, workers int) ([]ScalingRow, error) {
	jobs := make([]runner.Job[ScalingRow], len(sizes))
	for i, size := range sizes {
		jobs[i] = runner.Job[ScalingRow]{
			Name: fmt.Sprintf("scaling-%dsw", size),
			Seed: p.Seed,
			Run: func(int64) (ScalingRow, error) {
				ps := p
				ps.Switches = size
				run, err := setupAndExecute(ps, smallPayload, nil)
				if err != nil {
					return ScalingRow{}, err
				}
				all := stats.NewDelayCDF()
				jit := &stats.JitterHist{}
				for _, f := range run.Flows {
					all.Merge(f.Delay)
					jit.Merge(f.Jitter)
				}
				return ScalingRow{
					Switches:           size,
					Hosts:              run.Net.Topo.NumHosts(),
					Connections:        len(run.Flows),
					DeadlineMetPercent: all.PercentMeetingDeadline(),
					CentralJitter:      jit.CentralPercent(),
					HostUtilization:    run.Net.MeanHostUtilization(),
					DeliveredPerNode:   run.Net.DeliveredBytesPerCyclePerNode(),
				}, nil
			},
		}
	}
	return runner.Sweep(jobs, workers)
}

// PrintScaling renders the scaling sweep.
func PrintScaling(w io.Writer, rows []ScalingRow) {
	fmt.Fprintln(w, "Scaling — behavior across network sizes (small packets)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "switches\thosts\tconns\tdeadline met (%)\tcentral jitter (%)\thost util (%)\tdelivered (B/cycle/node)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.2f\t%.1f\t%.2f\t%.4f\n",
			r.Switches, r.Hosts, r.Connections, r.DeadlineMetPercent,
			r.CentralJitter, r.HostUtilization, r.DeliveredPerNode)
	}
	tw.Flush()
}
