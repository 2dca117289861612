package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/fabric"
	"repro/internal/runner"
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

// AblationVLCollapse runs the small-packet evaluation with the
// identity mapping (15 data VLs) and with collapsed mappings on
// workers goroutines, one job per lane budget.
func AblationVLCollapse(p Params, lanes []int, workers int) ([]VLCollapseRow, error) {
	jobs := make([]runner.Job[VLCollapseRow], len(lanes))
	for i, v := range lanes {
		jobs[i] = runner.Job[VLCollapseRow]{
			Name: fmt.Sprintf("vlcollapse-%dvl", v),
			Seed: p.Seed,
			Run: func(int64) (VLCollapseRow, error) {
				run, err := setupAndExecute(p, smallPayload, func(cfg *fabric.Config) {
					cfg.DataVLs = v
				})
				if err != nil {
					return VLCollapseRow{}, err
				}
				all := mergedDelay(run.Flows)
				return VLCollapseRow{
					DataVLs:            v,
					Connections:        len(run.Flows),
					HostReservation:    run.Net.Adm.MeanHostReservation(),
					DeadlineMetPercent: all.PercentMeetingDeadline(),
				}, nil
			},
		}
	}
	return runner.Sweep(jobs, workers)
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
