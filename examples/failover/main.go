// Failover: surviving a link failure with QoS intact.
//
// InfiniBand's pitch in the paper's introduction is fault granularity:
// a disaggregated fabric survives component failures.  This example
// shows the whole control-plane loop around the paper's proposal:
//
//  1. a subnet manager discovers a 16-switch fabric and programs the
//     forwarding tables and QoS state (byte-exact management
//     datagrams, costs in MADs);
//  2. for every inter-switch link that is not a cut edge, a live run
//     loads the fabric with guaranteed connections and fails that link
//     for good;
//  3. recovery detects the failure, repairs the routes with a fresh
//     deadlock-freedom proof, re-admits the displaced connections and
//     reprograms, in-band, only the arbitration tables they touch.
//     Each row is one link's run.
//
// Run with: go run ./examples/failover
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
)

func main() {
	res, err := experiments.Reconfiguration(16, 2026, 500, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bring-up: %d devices swept (%d MADs), forwarding %d MADs, QoS %d MADs\n\n",
		res.Sweep.Devices, res.Sweep.MADs, res.Forwarding.MADs, res.QoS.MADs)

	fmt.Println("link failure   admitted  displaced  lost  survival  repair MADs")
	for _, l := range res.Links {
		fmt.Printf("%-13s  %8d  %9d  %4d  %7.1f%%  %11d\n",
			l.Link, l.Admitted, l.Displaced, l.Stopped, 100*l.Survival, l.RepairMADs)
	}
	fmt.Printf("\n%d cut edges not failed; worst-case survival across all single-link failures: %.1f%%\n",
		res.CutEdges, 100*res.WorstSurvival)
}
