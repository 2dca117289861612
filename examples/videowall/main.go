// Videowall: a mixed multimedia / storage data center fabric — the
// workload the paper's introduction motivates.
//
// An 8-switch irregular network carries three traffic classes at once:
//
//   - voice calls        (SL 0, distance 2: the strictest deadlines)
//   - video streams      (SL 5, distance 32: bandwidth-hungry, time sensitive)
//   - storage replication (SL 8, distance 64: bandwidth only)
//   - best-effort web/mail background on the low-priority table
//
// The example admits every stream through connection admission
// control, simulates the loaded fabric, and prints per-class deadline
// and jitter results — every guaranteed packet must arrive in time
// even though best-effort traffic is flooding the same links.
//
// Run with: go run ./examples/videowall
package main

import (
	"fmt"
	"log"

	"repro/internal/fabric"
	"repro/internal/sl"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	topo, err := topology.Generate(8, 2026)
	if err != nil {
		log.Fatal(err)
	}
	net, err := fabric.NewWithTopology(fabric.DefaultConfig(8, 1024, 2026), topo)
	if err != nil {
		log.Fatal(err)
	}
	hosts := net.Topo.NumHosts()

	admit := func(src, dst int, level sl.Level, mbps float64) *fabric.Flow {
		conn, err := net.Adm.Admit(traffic.Request{Src: src, Dst: dst, Level: level, Mbps: mbps})
		if err != nil {
			log.Fatalf("admitting %g Mbps on SL %d: %v", mbps, level.SL, err)
		}
		return net.AddConnection(conn)
	}

	classes := map[string][]*fabric.Flow{}

	// 16 voice calls between random-ish host pairs.
	for i := 0; i < 16; i++ {
		f := admit(i%hosts, (i+7)%hosts, sl.DefaultLevels[0], 0.8)
		classes["voice"] = append(classes["voice"], f)
	}
	// 8 video streams at 24 Mbps.
	for i := 0; i < 8; i++ {
		f := admit((3*i)%hosts, (3*i+11)%hosts, sl.DefaultLevels[5], 24)
		classes["video"] = append(classes["video"], f)
	}
	// 6 storage replication flows at 14 Mbps.
	for i := 0; i < 6; i++ {
		f := admit((5*i)%hosts, (5*i+13)%hosts, sl.DefaultLevels[8], 14)
		classes["storage"] = append(classes["storage"], f)
	}
	// Best-effort background from every host.
	for _, be := range traffic.BestEffortBackground(hosts, 400, 9) {
		net.AddBestEffort(be)
	}

	// Simulate: short warm-up, then a measured steady-state window.
	slowest := classes["voice"][0].IAT
	net.Start()
	net.Engine.Run(2 * slowest)
	net.StartMeasurement()
	net.Engine.Run(2*slowest + 60*slowest)

	fmt.Println("class      flows  packets  deadline met  worst delay/D  jitter in ±IAT/8")
	for _, name := range []string{"voice", "video", "storage"} {
		flows := classes[name]
		delay := stats.NewDelayCDF()
		jitter := &stats.JitterHist{}
		for _, f := range flows {
			delay.Merge(f.Delay)
			jitter.Merge(f.Jitter)
		}
		fmt.Printf("%-10s %5d  %7d  %11.2f%%  %13.3f  %15.1f%%\n",
			name, len(flows), delay.Total(), delay.PercentMeetingDeadline(),
			delay.MaxRatio(), jitter.CentralPercent())
	}

	util := net.MeanHostUtilization()
	// Stop the sources and drain the fabric, then verify conservation:
	// every injected packet was delivered.
	net.StopGeneration()
	net.Engine.Run(net.Engine.Now() + 10*slowest)
	if err := net.CheckConservation(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfabric: %.1f%% mean host-link utilization; conservation verified after drain\n", util)
}
