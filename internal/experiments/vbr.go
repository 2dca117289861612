package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/fabric"
	"repro/internal/sl"
	"repro/internal/traffic"
)

// The extension's vbrFlows on/off sources each burst vbrBurst packets
// at vbrPeakFactor times their mean rate.
const vbrPeakFactor, vbrBurst, vbrFlows = 4, 8, 24

// vbrResult compares how variable-bit-rate sources fare under the
// paper's framework depending on what they reserve.  The authors'
// companion work ("Performance Evaluation of VBR Traffic in
// InfiniBand") studies VBR under these tables; the qualitative result
// reproduced here is that reserving the mean rate leaves burst packets
// queueing beyond their share, while reserving the peak rate restores
// the CBR-grade guarantees.
type vbrResult struct {
	MeanReserved vbrOutcome
	PeakReserved vbrOutcome
}

// vbrOutcome is one reservation policy's outcome.
type vbrOutcome struct {
	DeadlineMetPercent float64
	WorstDelayRatio    float64
}

// vbrScenario is the VBR extension's base: the 4-switch irregular
// fabric with small packets, a CBR fill that stops after 200 refusals
// in a row, no best effort, and a window of 60 interarrival times of
// the slowest VBR source after a warm-up of 3.  At Tiny, the scale of
// the unit tests and golden files, the fabric has 2 switches and the
// window is 8 interarrival times.
func vbrScenario(s Scale) Scenario {
	sc := Scenario{
		Seed: 42, Topology: irregular(4, 42), Fabric: fabric.DefaultConfig(0, smallPayload, 0),
		Saturate: true, MaxRejects: 200, WarmupIATs: 3, WindowIATs: 60,
	}
	if s == Tiny {
		sc.Topology, sc.WindowIATs = irregular(2, 42), 8
	}
	return sc
}

// vbrRun loads sc's network with on/off VBR connections on SLs
// 2-5, then with sc's CBR fill (bursts only contend when the links
// carry real load), and measures the VBR sources (execute).
// reservePeak selects whether admission reserves the peak rate or only
// the mean.
func vbrRun(sc Scenario, peakFactor, burst int, reservePeak bool) (vbrOutcome, error) {
	r, err := build(sc)
	if err != nil {
		return vbrOutcome{}, err
	}
	net := r.Net
	// Means chosen so that mean*peakFactor stays inside each SL's
	// bandwidth range, letting both scenarios use valid requests.
	plan := []struct {
		level int
		mean  float64
	}{
		{2, 1.0}, {3, 1.0}, {4, 2.0}, {5, 16},
	}
	hosts := net.Topo.NumHosts()
	var flows []*fabric.Flow
	for i := 0; i < vbrFlows; i++ {
		pl := plan[i%len(plan)]
		reserve := pl.mean
		if reservePeak {
			reserve = min(pl.mean*float64(peakFactor), sl.DefaultLevels[pl.level].MaxMbps)
		}
		req := traffic.Request{
			Src: i % hosts, Dst: (i + 5) % hosts,
			Level: sl.DefaultLevels[pl.level], Mbps: reserve,
		}
		conn, err := net.Adm.Admit(req)
		if err != nil {
			return vbrOutcome{}, fmt.Errorf("admitting VBR connection %d: %w", i, err)
		}
		// The source's actual behavior is identical in both scenarios:
		// bursts at peakFactor times the mean.  Build the flow from the
		// mean rate, then let AddVBRConnection shape it.
		conn.Req.Mbps = pl.mean
		flows = append(flows, net.AddVBRConnection(conn, float64(peakFactor), burst))
	}

	// The CBR background fills the remaining budget so the VBR bursts
	// have to share loaded links.
	if err := r.offer(); err != nil {
		return vbrOutcome{}, err
	}
	if err := r.execute(flows); err != nil {
		return vbrOutcome{}, err
	}
	all := mergedDelay(flows)
	return vbrOutcome{
		DeadlineMetPercent: all.PercentMeetingDeadline(),
		WorstDelayRatio:    all.MaxRatio(),
	}, nil
}

// ablationVBR runs both reservation policies for on/off VBR sources on
// sc, each at sc's seed, on workers goroutines.
func ablationVBR(sc Scenario, workers int) (vbrResult, error) {
	outcomes, err := sameSeed(sc, []string{"vbr-mean-reserved", "vbr-peak-reserved"}, workers,
		func(i int, sc Scenario) (vbrOutcome, error) {
			return vbrRun(sc, vbrPeakFactor, vbrBurst, i == 1)
		})
	if err != nil {
		return vbrResult{}, err
	}
	return vbrResult{MeanReserved: outcomes[0], PeakReserved: outcomes[1]}, nil
}

// printVBR renders the VBR extension experiment.
func printVBR(w io.Writer, r vbrResult) {
	fmt.Fprintf(w, "Extension — VBR sources (peak %dx mean, bursts of %d packets)\n", vbrPeakFactor, vbrBurst)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "reservation\tdeadline met (%)\tworst delay/D")
	row := func(name string, s vbrOutcome) {
		fmt.Fprintf(tw, "%s\t%.2f\t%.3f\n", name, s.DeadlineMetPercent, s.WorstDelayRatio)
	}
	row("mean rate", r.MeanReserved)
	row("peak rate", r.PeakReserved)
	tw.Flush()
}
