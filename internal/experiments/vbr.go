package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/fabric"
	"repro/internal/sl"
	"repro/internal/traffic"
)

// VBRResult compares how variable-bit-rate sources fare under the
// paper's framework depending on what they reserve.  The authors'
// companion work ("Performance Evaluation of VBR Traffic in
// InfiniBand") studies VBR under these tables; the qualitative result
// reproduced here is that reserving the mean rate leaves burst packets
// queueing beyond their share, while reserving the peak rate restores
// the CBR-grade guarantees.
type VBRResult struct {
	PeakFactor int
	Burst      int

	MeanReserved VBRScenario
	PeakReserved VBRScenario
}

// VBRScenario is one reservation policy's outcome.
type VBRScenario struct {
	DeadlineMetPercent float64
	WorstDelayRatio    float64
	Connections        int
}

// vbrBase is the VBR extension's scenario on the irregular fabric of
// the given size: small packets, a CBR fill that stops after 200
// refusals in a row, no best effort.
func vbrBase(seed int64, switches int) Scenario {
	return Scenario{
		Seed: seed, Topology: irregular(switches, seed), Fabric: fabric.DefaultConfig(0, smallPayload, 0),
		Saturate: true, MaxRejects: 200,
	}
}

// vbrScenario loads sc's network with on/off VBR connections on SLs
// 2-5, then with sc's saturating CBR fill (bursts only contend when the
// links carry real load).  reservePeak selects whether admission
// reserves the peak rate or only the mean.
func vbrScenario(sc Scenario, peakFactor, burst int, windowIATs int64, reservePeak bool) (VBRScenario, error) {
	r, err := build(sc)
	if err != nil {
		return VBRScenario{}, err
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
	for i := 0; i < 24; i++ {
		pl := plan[i%len(plan)]
		reserve := pl.mean
		if reservePeak {
			reserve = pl.mean * float64(peakFactor)
			if max := sl.DefaultLevels[pl.level].MaxMbps; reserve > max {
				reserve = max
			}
		}
		req := traffic.Request{
			Src: i % hosts, Dst: (i + 5) % hosts,
			Level: sl.DefaultLevels[pl.level], Mbps: reserve,
		}
		conn, err := net.Adm.Admit(req)
		if err != nil {
			return VBRScenario{}, fmt.Errorf("admitting VBR connection %d: %w", i, err)
		}
		// The source's actual behavior is identical in both scenarios:
		// bursts at peakFactor times the mean.  Build the flow from the
		// mean rate, then let AddVBRConnection shape it.
		conn.Req.Mbps = pl.mean
		f := net.AddVBRConnection(conn, float64(peakFactor), burst)
		flows = append(flows, f)
	}

	// Saturating CBR background: fills the remaining budget so the
	// VBR bursts have to share loaded links.
	if err := r.offer(); err != nil {
		return VBRScenario{}, err
	}

	slowest := flows[0]
	for _, f := range flows {
		if f.IAT > slowest.IAT {
			slowest = f
		}
	}
	net.Start()
	net.Run(3 * slowest.IAT)
	net.StartMeasurement()
	net.Run(net.Now() + windowIATs*slowest.IAT)

	all := mergedDelay(flows)
	return VBRScenario{
		DeadlineMetPercent: all.PercentMeetingDeadline(),
		WorstDelayRatio:    all.MaxRatio(),
		Connections:        len(flows),
	}, nil
}

// AblationVBR runs both reservation policies for on/off VBR sources on
// a network of the given size, measuring windowIATs periods of the
// slowest VBR source.  The two scenarios fan out on workers
// goroutines.
func AblationVBR(seed int64, peakFactor, burst, switches int, windowIATs int64, workers int) (VBRResult, error) {
	scenarios, err := sameSeed(vbrBase(seed, switches), []string{"vbr-mean-reserved", "vbr-peak-reserved"}, workers,
		func(i int, sc Scenario) (VBRScenario, error) {
			return vbrScenario(sc, peakFactor, burst, windowIATs, i == 1)
		})
	if err != nil {
		return VBRResult{}, err
	}
	return VBRResult{
		PeakFactor:   peakFactor,
		Burst:        burst,
		MeanReserved: scenarios[0],
		PeakReserved: scenarios[1],
	}, nil
}

// PrintVBR renders the VBR extension experiment.
func PrintVBR(w io.Writer, r VBRResult) {
	fmt.Fprintf(w, "Extension — VBR sources (peak %dx mean, bursts of %d packets)\n", r.PeakFactor, r.Burst)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "reservation\tdeadline met (%)\tworst delay/D")
	row := func(name string, s VBRScenario) {
		fmt.Fprintf(tw, "%s\t%.2f\t%.3f\n", name, s.DeadlineMetPercent, s.WorstDelayRatio)
	}
	row("mean rate", r.MeanReserved)
	row("peak rate", r.PeakReserved)
	tw.Flush()
}
