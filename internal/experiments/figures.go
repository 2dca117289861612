package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/stats"
)

// DelaySeries is one curve of Figure 4: for one service level, the
// percentage of packets received before each threshold (fractions of
// the connection deadline D, stats.DelayFractions).
type DelaySeries struct {
	SL      uint8
	Percent []float64
	Packets int64
}

// Figure4Result holds the delay-distribution curves for both packet
// sizes (Figure 4a and 4b).
type Figure4Result struct {
	Small, Large []DelaySeries
}

// Figure4 extracts the packet-delay distributions per SL.
func (e *Evaluation) Figure4() Figure4Result {
	series := func(r *Run) []DelaySeries {
		bySL := r.delayBySL()
		var out []DelaySeries
		for _, id := range r.slIDs() {
			d := bySL[id]
			s := DelaySeries{SL: id, Packets: d.Total()}
			for i := range stats.DelayFractions {
				s.Percent = append(s.Percent, d.PercentBelow(i))
			}
			out = append(out, s)
		}
		return out
	}
	return Figure4Result{Small: series(e.Small), Large: series(e.Large)}
}

// PrintFigure4 renders one sub-figure's series as rows per SL.
func PrintFigure4(w io.Writer, title string, series []DelaySeries) {
	fmt.Fprintf(w, "%s — %% of packets received before threshold (fraction of deadline D)\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "SL\tpackets")
	for _, f := range stats.DelayFractions {
		fmt.Fprintf(tw, "\tD*%.3f", f)
	}
	fmt.Fprintln(tw)
	for _, s := range series {
		fmt.Fprintf(tw, "SL %d\t%d", s.SL, s.Packets)
		for _, p := range s.Percent {
			fmt.Fprintf(tw, "\t%.1f", p)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// JitterSeries is one curve of Figure 5: for one service level, the
// percentage of packets in each interarrival interval.
type JitterSeries struct {
	SL      uint8
	Percent [stats.JitterBuckets]float64
	Samples int64
}

// Figure5 extracts the jitter histograms per SL for the small packet
// size (the paper reports large packets as "quite similar"; use
// Figure5For to get them too).
func (e *Evaluation) Figure5() []JitterSeries { return Figure5For(e.Small) }

// Figure5For extracts the jitter histograms of one run.
func Figure5For(r *Run) []JitterSeries {
	var out []JitterSeries
	for _, id := range r.slIDs() {
		j := r.Net.Jitter(id)
		s := JitterSeries{SL: id, Samples: j.Total()}
		for i := 0; i < stats.JitterBuckets; i++ {
			s.Percent[i] = j.Percent(i)
		}
		out = append(out, s)
	}
	return out
}

// PrintFigure5 renders the jitter series under the given title.
func PrintFigure5(w io.Writer, title string, series []JitterSeries) {
	fmt.Fprintf(w, "%s — %% of packets received within interval (relative to IAT)\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "SL\tsamples")
	for _, l := range stats.JitterLabels {
		fmt.Fprintf(tw, "\t%s", l)
	}
	fmt.Fprintln(tw)
	for _, s := range series {
		fmt.Fprintf(tw, "SL %d\t%d", s.SL, s.Samples)
		for _, p := range s.Percent {
			fmt.Fprintf(tw, "\t%.1f", p)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// BestWorstSeries is one panel of Figure 6: the best and worst
// connection of a strict service level.
type BestWorstSeries struct {
	SL                  uint8
	Best                []float64 // % before each threshold, stats.DelayFractions
	Worst               []float64
	BestMbps, WorstMbps float64
}

// Figure6 extracts the best/worst connection comparison for the
// service levels with the strictest latency requirements (SLs 0-3).
// Following the paper, connections are ranked at a very tight
// threshold — the smallest deadline fraction, where percentages drop
// below 100 in a loaded network.
func (e *Evaluation) Figure6() []BestWorstSeries {
	const tightIdx = 0 // D/32, the tightest reported threshold
	var out []BestWorstSeries
	for _, id := range []uint8{0, 1, 2, 3} {
		best, worst := e.Small.bestWorst(id, tightIdx)
		if best == nil || worst == nil {
			continue
		}
		s := BestWorstSeries{SL: id, BestMbps: best.Mbps, WorstMbps: worst.Mbps}
		for i := range stats.DelayFractions {
			s.Best = append(s.Best, best.Delay.PercentBelow(i))
			s.Worst = append(s.Worst, worst.Delay.PercentBelow(i))
		}
		out = append(out, s)
	}
	return out
}

// PrintFigure6 renders the best/worst comparison.
func PrintFigure6(w io.Writer, series []BestWorstSeries) {
	fmt.Fprintln(w, "Figure 6 — best vs. worst connection, strictest SLs (small packets)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "connection")
	for _, f := range stats.DelayFractions {
		fmt.Fprintf(tw, "\tD*%.3f", f)
	}
	fmt.Fprintln(tw)
	for _, s := range series {
		fmt.Fprintf(tw, "best SL %d (%.2f Mbps)", s.SL, s.BestMbps)
		for _, p := range s.Best {
			fmt.Fprintf(tw, "\t%.1f", p)
		}
		fmt.Fprintln(tw)
		fmt.Fprintf(tw, "worst SL %d (%.2f Mbps)", s.SL, s.WorstMbps)
		for _, p := range s.Worst {
			fmt.Fprintf(tw, "\t%.1f", p)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
