package experiments

import (
	"context"
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
	Err                error
}

// AblationVLCollapse runs the small-packet evaluation with the
// identity mapping (15 data VLs) and with collapsed mappings through
// the shared worker pool, one job per lane budget.
func AblationVLCollapse(p Params, lanes []int) []VLCollapseRow {
	jobs := make([]runner.Job[VLCollapseRow], len(lanes))
	for i, v := range lanes {
		v := v
		jobs[i] = runner.Job[VLCollapseRow]{
			Name: fmt.Sprintf("vlcollapse-%dvl", v),
			Seed: p.Seed,
			Run: func(context.Context, int64) (VLCollapseRow, error) {
				run, err := setupAndExecute(p, SmallPayload, func(cfg *fabric.Config) {
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
	rows := make([]VLCollapseRow, len(lanes))
	for _, res := range runner.Sweep(context.Background(), jobs, runner.Options{}) {
		rows[res.Index] = res.Value
		if res.Err != nil {
			rows[res.Index] = VLCollapseRow{DataVLs: lanes[res.Index], Err: res.Err}
		}
	}
	return rows
}

// PrintVLCollapse renders the VL-collapse ablation.
func PrintVLCollapse(w io.Writer, rows []VLCollapseRow) {
	fmt.Fprintln(w, "Ablation — collapsing service levels onto fewer data VLs")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "data VLs\tconns admitted\tmean host reservation (Mbps)\tdeadline met (%)")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(tw, "%d\terror: %v\n", r.DataVLs, r.Err)
			continue
		}
		fmt.Fprintf(tw, "%d\t%d\t%.0f\t%.2f\n", r.DataVLs, r.Connections, r.HostReservation, r.DeadlineMetPercent)
	}
	tw.Flush()
}
