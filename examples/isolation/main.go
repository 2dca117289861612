// Isolation: a misbehaving source only hurts its own virtual lane.
//
// Section 3.2 of the paper argues for classifying traffic into service
// levels by latency and giving each SL its own VL: "if some source
// sends more than it previously requested this will affect only the
// connections sharing the same VL, but the rest of the traffic in
// other VLs will achieve what they requested."
//
// This example reproduces that claim directly.  Three connections
// share a two-switch fabric:
//
//   - victim A (SL 3) — well behaved, its own virtual lane
//   - victim B (SL 5) — well behaved, SAME service level (and source
//     host, hence the same VL queues) as the rogue
//   - rogue    (SL 5) — reserved 20 Mbps, transmits 3000 Mbps
//     (more than the 2 Gbps link can even carry)
//
// Victim A, on its own VL, keeps 100 % of its deadline guarantee.
// Victim B shares the rogue's VL FIFO queues and suffers.
//
// Run with: go run ./examples/isolation
package main

import (
	"fmt"
	"log"

	"repro/internal/fabric"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	topo, err := topology.Generate(2, 5)
	if err != nil {
		log.Fatal(err)
	}
	net, err := fabric.NewWithTopology(fabric.DefaultConfig(2, 512, 5), topo)
	if err != nil {
		log.Fatal(err)
	}

	conn := func(src, dst, level int, mbps float64) *fabric.Flow {
		c, err := net.Adm.Admit(traffic.Request{
			Src: src, Dst: dst, Level: sl.DefaultLevels[level], Mbps: mbps,
		})
		if err != nil {
			log.Fatal(err)
		}
		return net.AddConnection(c)
	}

	victimA := conn(0, 7, 3, 3) // own VL (SL 3)
	victimB := conn(1, 6, 5, 20)
	// The rogue shares victim B's source host and service level: both
	// traverse the same VL 5 queues.  It reserves 20 Mbps but blasts
	// 3000 Mbps — beyond what the link can carry, so the shared VL
	// queue is permanently backlogged.
	rogueAdmitted, err := net.Adm.Admit(traffic.Request{
		Src: 1, Dst: 5, Level: sl.DefaultLevels[5], Mbps: 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	rogue := net.AddMisbehavingConnection(rogueAdmitted, 3000)

	net.Start()
	warm := 4 * victimA.IAT
	net.Engine.Run(warm)
	net.StartMeasurement()
	net.Engine.Run(warm + 100*victimA.IAT)

	report := func(name string, f *fabric.Flow, window int64) {
		expected := float64(window) / float64(f.IAT)
		goodput := float64(f.Delivered) / expected
		fmt.Printf("%-22s VL%-2d  goodput %5.1f%%  deadline met %6.2f%%\n",
			name, f.VL, 100*goodput, f.Delay.PercentMeetingDeadline())
	}
	window := int64(100) * victimA.IAT
	fmt.Println("after a steady-state window with the rogue transmitting 150x its reservation:")
	report("victim A (own VL)", victimA, window)
	report("victim B (rogue's VL)", victimB, window)
	report("rogue", rogue, window)
	if victimA.Delay.PercentMeetingDeadline() < 100 {
		log.Fatal("victim A was disturbed; isolation property broken")
	}
	fmt.Println("\nvictim A is untouched; only the rogue's VL suffers — the paper's isolation property.")
}
