package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/sl"
)

// table1Row describes one service level as configured (paper Table 1),
// extended with the derived weight range and per-hop deadline.
type table1Row struct {
	SL            uint8
	Class         string
	Distance      int
	MinMbps       float64
	MaxMbps       float64
	WeightRange   [2]int
	HopDeadlineBT int64
}

// table1 reports the service-level configuration.
func table1() []table1Row {
	rows := make([]table1Row, 0, len(sl.DefaultLevels))
	for _, l := range sl.DefaultLevels {
		rows = append(rows, table1Row{
			SL:       l.SL,
			Class:    l.Class.String(),
			Distance: l.Distance,
			MinMbps:  l.MinMbps,
			MaxMbps:  l.MaxMbps,
			WeightRange: [2]int{
				sl.WeightForBandwidth(l.MinMbps),
				sl.WeightForBandwidth(l.MaxMbps),
			},
			HopDeadlineBT: sl.HopDeadlineByteTimes(l.Distance, smallPayload+sl.HeaderBytes),
		})
	}
	return rows
}

// printTable1 renders Table 1.
func printTable1(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SL\tClass\tMaxDistance\tBandwidth (Mbps)\tWeight\tHopDeadline (byte times)")
	for _, r := range table1() {
		fmt.Fprintf(tw, "%d\t%s\t%d\t[%g, %g]\t[%d, %d]\t%d\n",
			r.SL, r.Class, r.Distance, r.MinMbps, r.MaxMbps,
			r.WeightRange[0], r.WeightRange[1], r.HopDeadlineBT)
	}
	tw.Flush()
}

// table2Row is one column of the paper's Table 2: traffic and
// utilization for one packet size.
type table2Row struct {
	Payload            int
	InjectedPerNode    float64 // bytes/cycle/node
	DeliveredPerNode   float64 // bytes/cycle/node
	HostUtilization    float64 // %
	SwitchUtilization  float64 // %
	HostReservation    float64 // Mbps, average per host interface
	SwitchReservation  float64 // Mbps, average per wired switch port
	Connections        int
	DeadlineMetPercent float64 // all QoS SLs combined (paper: 100)
}

// table2 extracts the Table 2 rows from an executed evaluation.
func (e *evaluation) table2() [2]table2Row {
	row := func(r *run) table2Row {
		all := mergedDelay(r.Flows)
		return table2Row{
			Payload:            r.Net.Cfg.PayloadBytes,
			InjectedPerNode:    r.Net.InjectedBytesPerCyclePerNode(),
			DeliveredPerNode:   r.Net.DeliveredBytesPerCyclePerNode(),
			HostUtilization:    r.Net.MeanHostUtilization(),
			SwitchUtilization:  r.Net.MeanSwitchPortUtilization(),
			HostReservation:    r.Net.Adm.MeanHostReservation(),
			SwitchReservation:  r.Net.Adm.MeanSwitchPortReservation(),
			Connections:        len(r.Flows),
			DeadlineMetPercent: all.PercentMeetingDeadline(),
		}
	}
	return [2]table2Row{row(e.Small), row(e.Large)}
}

// printTable2 renders the two packet-size columns like the paper.
func printTable2(w io.Writer, rows [2]table2Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Packet size\tSmall (%d B)\tLarge (%d B)\n", rows[0].Payload, rows[1].Payload)
	fmt.Fprintf(tw, "Connections established\t%d\t%d\n", rows[0].Connections, rows[1].Connections)
	fmt.Fprintf(tw, "Injected traffic (bytes/cycle/node)\t%.4f\t%.4f\n", rows[0].InjectedPerNode, rows[1].InjectedPerNode)
	fmt.Fprintf(tw, "Delivered traffic (bytes/cycle/node)\t%.4f\t%.4f\n", rows[0].DeliveredPerNode, rows[1].DeliveredPerNode)
	fmt.Fprintf(tw, "Av. utilization for host interfaces (%%)\t%.2f\t%.2f\n", rows[0].HostUtilization, rows[1].HostUtilization)
	fmt.Fprintf(tw, "Av. utilization for switch ports (%%)\t%.2f\t%.2f\n", rows[0].SwitchUtilization, rows[1].SwitchUtilization)
	fmt.Fprintf(tw, "Av. reservation for host interfaces (Mbps)\t%.1f\t%.1f\n", rows[0].HostReservation, rows[1].HostReservation)
	fmt.Fprintf(tw, "Av. reservation for switch ports (Mbps)\t%.1f\t%.1f\n", rows[0].SwitchReservation, rows[1].SwitchReservation)
	fmt.Fprintf(tw, "Packets meeting deadline (%%)\t%.2f\t%.2f\n", rows[0].DeadlineMetPercent, rows[1].DeadlineMetPercent)
	tw.Flush()
}

// slBreakdownRow reports per service level how many connections the
// fill established and how much bandwidth they reserve — the paper
// notes "we have already made many attempts for each SL" when arguing
// the network is quasi-fully loaded.
type slBreakdownRow struct {
	SL           uint8
	Connections  int
	ReservedMbps float64
}

// slBreakdown summarizes one run's admitted connections per SL.
func (r *run) slBreakdown() []slBreakdownRow {
	byID := map[uint8]*slBreakdownRow{}
	for _, f := range r.Flows {
		row, ok := byID[f.SL]
		if !ok {
			row = &slBreakdownRow{SL: f.SL}
			byID[f.SL] = row
		}
		row.Connections++
		row.ReservedMbps += f.Mbps
	}
	var out []slBreakdownRow
	for _, id := range r.slIDs() {
		out = append(out, *byID[id])
	}
	return out
}

// printSLBreakdown renders the per-SL connection summary.
func printSLBreakdown(w io.Writer, title string, rows []slBreakdownRow) {
	fmt.Fprintf(w, "%s — connections established per service level\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SL\tconnections\ttotal reserved (Mbps)")
	for _, r := range rows {
		fmt.Fprintf(tw, "SL %d\t%d\t%.0f\n", r.SL, r.Connections, r.ReservedMbps)
	}
	tw.Flush()
}
