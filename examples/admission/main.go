// Admission churn: connections come and go, the tables defragment.
//
// This example exercises the dynamic side of the paper's proposal on a
// 16-switch network: thousands of connections are admitted and
// released in random order while the arbitration tables are
// defragmented on every release.  It reports the acceptance rate over
// time, proves the allocator invariants hold throughout, and contrasts
// the paper's bit-reversal fill-in with a naive first-fit filler on
// the same request stream (the naive one fragments and rejects
// requests that provably fit).
//
// Run with: go run ./examples/admission
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	topo, err := topology.Generate(16, 99)
	if err != nil {
		log.Fatal(err)
	}
	routes, err := routing.ComputeFor(topo)
	if err != nil {
		log.Fatal(err)
	}
	ctrl := admission.NewController(topo, routes, sl.IdentityMapping(),
		admission.NewPorts(topo, arbtable.UnlimitedHigh, nil))

	rng := rand.New(rand.NewSource(7))
	src := traffic.NewSource(sl.DefaultLevels, topo.NumHosts(), 7)

	var live []*admission.Conn
	accepted, rejected := 0, 0
	fmt.Println("phase        live conns  accepted  rejected  mean host reservation (Mbps)")
	for step := 1; step <= 6000; step++ {
		if len(live) == 0 || rng.Intn(100) < 60 {
			conn, err := ctrl.Admit(src.Next())
			if err != nil {
				rejected++
			} else {
				accepted++
				live = append(live, conn)
			}
		} else {
			i := rng.Intn(len(live))
			if err := ctrl.Release(live[i]); err != nil {
				log.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if step%1000 == 0 {
			if err := ctrl.CheckInvariants(); err != nil {
				log.Fatalf("step %d: %v", step, err)
			}
			fmt.Printf("step %5d  %10d  %8d  %8d  %25.0f\n",
				step, len(live), accepted, rejected, ctrl.MeanHostReservation())
		}
	}
	fmt.Println("\nall allocator invariants held through 6000 admit/release steps")

	// Head-to-head on one port: how many random requests fit before
	// the first rejection under each fill-in policy?
	fmt.Println("\nfill-in policy comparison (requests placed before first reject):")
	sumBR, sumNat := 0, 0
	const trials = 200
	for seed := int64(0); seed < trials; seed++ {
		sumBR += baseline.FillUntilReject(seed, core.BitReversal)
		sumNat += baseline.FillUntilReject(seed, core.NaturalOrder)
	}
	fmt.Printf("  bit-reversal (paper): %.2f requests on average\n", float64(sumBR)/trials)
	fmt.Printf("  natural first fit:    %.2f requests on average\n", float64(sumNat)/trials)
}
