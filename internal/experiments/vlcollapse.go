package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// VLCollapseRow summarizes one lane budget of the VL-collapse
// ablation: what it costs to run the paper's scheme on switches with
// fewer virtual lanes than service levels (section 3.2 discusses the
// sharing and its price: shared groups adopt their most restrictive
// distance).
type VLCollapseRow struct {
	DataVLs            int
	Connections        int
	HostReservation    float64 // Mbps
	DeadlineMetPercent float64
}

// AblationVLCollapse runs the small-packet evaluation of sc with the
// identity mapping (15 data VLs) and with collapsed mappings on
// workers goroutines, one job per lane budget.
func AblationVLCollapse(sc Scenario, lanes []int, workers int) ([]VLCollapseRow, error) {
	names := make([]string, len(lanes))
	for i, v := range lanes {
		names[i] = fmt.Sprintf("vlcollapse-%dvl", v)
	}
	return sameSeed(sc, names, workers, func(i int, sc Scenario) (VLCollapseRow, error) {
		sc.Fabric.PayloadBytes, sc.Fabric.DataVLs = smallPayload, lanes[i]
		run, err := measured(sc)
		if err != nil {
			return VLCollapseRow{}, err
		}
		return VLCollapseRow{
			DataVLs:            lanes[i],
			Connections:        len(run.Flows),
			HostReservation:    run.Net.Adm.MeanHostReservation(),
			DeadlineMetPercent: mergedDelay(run.Flows).PercentMeetingDeadline(),
		}, nil
	})
}

// PrintVLCollapse renders the VL-collapse ablation.
func PrintVLCollapse(w io.Writer, rows []VLCollapseRow) {
	fmt.Fprintln(w, "Ablation — collapsing service levels onto fewer data VLs")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "data VLs\tconns admitted\tmean host reservation (Mbps)\tdeadline met (%)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%.0f\t%.2f\n", r.DataVLs, r.Connections, r.HostReservation, r.DeadlineMetPercent)
	}
	tw.Flush()
}
