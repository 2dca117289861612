package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// scalingRow summarizes one network size of the scaling sweep; the
// paper evaluates 8 to 64 switches and reports "the results are
// similar" across sizes.
type scalingRow struct {
	Switches           int
	Hosts              int
	Connections        int
	DeadlineMetPercent float64
	CentralJitter      float64 // % of packets in the central interval
	HostUtilization    float64
	DeliveredPerNode   float64
}

// scalingSizes is the scaling sweep's axis at scale s: the network
// sizes it evaluates, up to the paper's 64 switches at Full.
func scalingSizes(s Scale) []int {
	switch s {
	case Tiny:
		return []int{2, 4}
	case Quick:
		return []int{8, 16, 32}
	}
	return []int{8, 16, 32, 64}
}

// scaling runs the small-packet evaluation of sc across the given
// network sizes on workers goroutines, one job per size.
func scaling(sc Scenario, sizes []int, workers int) ([]scalingRow, error) {
	names := make([]string, len(sizes))
	for i, size := range sizes {
		names[i] = fmt.Sprintf("scaling-%dsw", size)
	}
	return sameSeed(sc, names, workers, func(i int, sc Scenario) (scalingRow, error) {
		sc.Fabric.PayloadBytes, sc.Topology.Switches = smallPayload, sizes[i]
		r, err := measured(sc)
		if err != nil {
			return scalingRow{}, err
		}
		all, jit := mergedDelay(r.Flows), r.Net.Jitter(r.slIDs()...)
		return scalingRow{
			Switches:           sizes[i],
			Hosts:              r.Net.Topo.NumHosts(),
			Connections:        len(r.Flows),
			DeadlineMetPercent: all.PercentMeetingDeadline(),
			CentralJitter:      jit.CentralPercent(),
			HostUtilization:    r.Net.MeanHostUtilization(),
			DeliveredPerNode:   r.Net.DeliveredBytesPerCyclePerNode(),
		}, nil
	})
}

// printScaling renders the scaling sweep.
func printScaling(w io.Writer, rows []scalingRow) {
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
