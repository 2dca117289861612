// Package stats provides the measurement primitives of the evaluation:
// deadline-relative delay distributions (Figure 4 and 6 of the paper),
// interarrival-time jitter histograms (Figure 5), and byte meters for
// utilization and throughput accounting (Table 2).
package stats

// DelayFractions are the deadline fractions at which the delay CDF is
// reported, matching the threshold axis of the paper's Figures 4 and 6
// (thresholds from a small fraction of the deadline D up to D).
var DelayFractions = []float64{1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 3.0 / 4, 1.0}

// delayBuckets is the number of delay buckets, len(DelayFractions)+1.
const delayBuckets = 8

// DelayCDF accumulates packet delays normalized by a per-connection
// deadline and reports the fraction of packets below each threshold.
// The zero value is an empty distribution, and its buckets are a fixed
// array, so a DelayCDF embedded in a larger record costs no object of
// its own.
type DelayCDF struct {
	// counts[i] counts delays in bucket i: bucket 0 holds ratios
	// <= DelayFractions[0], bucket i ratios in
	// (DelayFractions[i-1], DelayFractions[i]], and the final bucket
	// ratios beyond the deadline.
	counts [delayBuckets]int64
	total  int64
	sum    float64 // sum of ratios, for the mean
	max    float64
}

// NewDelayCDF returns an empty delay distribution.
func NewDelayCDF() *DelayCDF { return &DelayCDF{} }

// Reset empties the distribution in place.
func (d *DelayCDF) Reset() { *d = DelayCDF{} }

// Add records one packet whose delay is the given fraction of its
// deadline (delay/deadline).
func (d *DelayCDF) Add(ratio float64) {
	i := 0
	for i < len(DelayFractions) && ratio > DelayFractions[i] {
		i++
	}
	d.counts[i]++
	d.total++
	d.sum += ratio
	if ratio > d.max {
		d.max = ratio
	}
}

// Total returns the number of recorded packets.
func (d *DelayCDF) Total() int64 { return d.total }

// PercentBelow returns the percentage of packets whose delay ratio is
// at or below the threshold with the given index into DelayFractions.
func (d *DelayCDF) PercentBelow(i int) float64 {
	if d.total == 0 {
		return 0
	}
	var c int64
	for k := 0; k <= i; k++ {
		c += d.counts[k]
	}
	return 100 * float64(c) / float64(d.total)
}

// PercentMeetingDeadline returns the percentage of packets delivered
// at or before their deadline.
func (d *DelayCDF) PercentMeetingDeadline() float64 {
	return d.PercentBelow(len(DelayFractions) - 1)
}

// MeanRatio returns the mean delay/deadline ratio.
func (d *DelayCDF) MeanRatio() float64 {
	if d.total == 0 {
		return 0
	}
	return d.sum / float64(d.total)
}

// MaxRatio returns the largest observed delay/deadline ratio.
func (d *DelayCDF) MaxRatio() float64 { return d.max }

// Merge adds the contents of other into d.
func (d *DelayCDF) Merge(other *DelayCDF) {
	for i := range d.counts {
		d.counts[i] += other.counts[i]
	}
	d.total += other.total
	d.sum += other.sum
	if other.max > d.max {
		d.max = other.max
	}
}

// JitterEdges are the interval boundaries of the jitter histogram in
// units of the nominal interarrival time (IAT), matching the x axis of
// the paper's Figure 5.  Deviations below -IAT or above +IAT land in
// the open tail buckets.
var JitterEdges = []float64{-1, -3.0 / 4, -1.0 / 2, -1.0 / 4, -1.0 / 8, 1.0 / 8, 1.0 / 4, 1.0 / 2, 3.0 / 4, 1}

// JitterBuckets is the number of histogram buckets (len(JitterEdges)+1).
const JitterBuckets = 11

// JitterLabels name the buckets for reporting.
var JitterLabels = []string{
	"<-IAT", "[-IAT,-3IAT/4)", "[-3IAT/4,-IAT/2)", "[-IAT/2,-IAT/4)", "[-IAT/4,-IAT/8)",
	"[-IAT/8,+IAT/8)", "[+IAT/8,+IAT/4)", "[+IAT/4,+IAT/2)", "[+IAT/2,+3IAT/4)", "[+3IAT/4,+IAT)",
	">=+IAT",
}

// JitterHist accumulates interarrival deviations relative to the
// nominal IAT: a packet arriving dt after its predecessor contributes
// the deviation (dt - IAT) / IAT.
type JitterHist struct {
	counts [JitterBuckets]int64
	total  int64
}

// Add records one interarrival deviation, already normalized by the
// IAT (e.g. 0 means exactly on schedule, -0.5 means half an IAT early).
func (j *JitterHist) Add(norm float64) {
	i := 0
	for i < len(JitterEdges) && norm >= JitterEdges[i] {
		i++
	}
	j.counts[i]++
	j.total++
}

// Total returns the number of recorded deviations.
func (j *JitterHist) Total() int64 { return j.total }

// Percent returns the percentage of deviations in bucket i.
func (j *JitterHist) Percent(i int) float64 {
	if j.total == 0 {
		return 0
	}
	return 100 * float64(j.counts[i]) / float64(j.total)
}

// CentralPercent returns the percentage of deviations within
// (-IAT/8, +IAT/8), the central interval the paper reports most
// packets falling into.
func (j *JitterHist) CentralPercent() float64 { return j.Percent(5) }

// Merge adds the contents of other into j.
func (j *JitterHist) Merge(other *JitterHist) {
	for i := range j.counts {
		j.counts[i] += other.counts[i]
	}
	j.total += other.total
}

// Meter counts bytes crossing a measurement point, with the simulation
// interval supplied at reading time.
type Meter struct {
	Bytes   int64
	Packets int64
}

// Add records one packet of the given wire size.
func (m *Meter) Add(bytes int) {
	m.Bytes += int64(bytes)
	m.Packets++
}

// Utilization returns the fraction of link capacity used over an
// interval of the given length in byte times (a 1x link carries one
// byte per byte time, so utilization is bytes/elapsed).
func (m *Meter) Utilization(elapsed int64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(m.Bytes) / float64(elapsed)
}
