package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// vlCollapseRow summarizes one lane budget of the VL-collapse
// ablation: what it costs to run the paper's scheme on switches with
// fewer virtual lanes than service levels (section 3.2 discusses the
// sharing and its price: shared groups adopt their most restrictive
// distance).
type vlCollapseRow struct {
	DataVLs            int
	Connections        int
	HostReservation    float64 // Mbps
	DeadlineMetPercent float64
}

// ablationVLCollapse runs the small-packet evaluation of sc with the
// identity mapping (15 data VLs) and with collapsed mappings on
// workers goroutines, one job per lane budget.
func ablationVLCollapse(sc Scenario, lanes []int, workers int) ([]vlCollapseRow, error) {
	names := make([]string, len(lanes))
	for i, v := range lanes {
		names[i] = fmt.Sprintf("vlcollapse-%dvl", v)
	}
	return sameSeed(sc, names, workers, func(i int, sc Scenario) (vlCollapseRow, error) {
		sc.Fabric.PayloadBytes, sc.Fabric.DataVLs = smallPayload, lanes[i]
		r, err := measured(sc)
		if err != nil {
			return vlCollapseRow{}, err
		}
		return vlCollapseRow{
			DataVLs:            lanes[i],
			Connections:        len(r.Flows),
			HostReservation:    r.Net.Adm.MeanHostReservation(),
			DeadlineMetPercent: mergedDelay(r.Flows).PercentMeetingDeadline(),
		}, nil
	})
}

// printVLCollapse renders the VL-collapse ablation.
func printVLCollapse(w io.Writer, rows []vlCollapseRow) {
	fmt.Fprintln(w, "Ablation — collapsing service levels onto fewer data VLs")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "data VLs\tconns admitted\tmean host reservation (Mbps)\tdeadline met (%)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%.0f\t%.2f\n", r.DataVLs, r.Connections, r.HostReservation, r.DeadlineMetPercent)
	}
	tw.Flush()
}
