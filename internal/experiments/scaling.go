package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
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

// Scaling runs the small-packet evaluation of sc across the given
// network sizes on workers goroutines, one job per size.
func Scaling(sc Scenario, sizes []int, workers int) ([]ScalingRow, error) {
	names := make([]string, len(sizes))
	for i, size := range sizes {
		names[i] = fmt.Sprintf("scaling-%dsw", size)
	}
	return sameSeed(sc, names, workers, func(i int, sc Scenario) (ScalingRow, error) {
		sc.Fabric.PayloadBytes, sc.Topology.Switches = smallPayload, sizes[i]
		run, err := measured(sc)
		if err != nil {
			return ScalingRow{}, err
		}
		all, jit := mergedDelay(run.Flows), run.Net.Jitter(run.slIDs()...)
		return ScalingRow{
			Switches:           sizes[i],
			Hosts:              run.Net.Topo.NumHosts(),
			Connections:        len(run.Flows),
			DeadlineMetPercent: all.PercentMeetingDeadline(),
			CentralJitter:      jit.CentralPercent(),
			HostUtilization:    run.Net.MeanHostUtilization(),
			DeliveredPerNode:   run.Net.DeliveredBytesPerCyclePerNode(),
		}, nil
	})
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
