// Quickstart: fill an InfiniBand arbitration table with the paper's
// algorithm.
//
// It reserves three connections with different latency (distance) and
// bandwidth requirements on one output port, shows where the
// bit-reversal fill-in places them, releases one, and demonstrates
// that defragmentation keeps the table able to accept the most
// restrictive request.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/sl"
)

func main() {
	// One output port's VLArbitrationTable, managed by the paper's
	// allocator.
	table := arbtable.New(arbtable.UnlimitedHigh)
	port := core.NewPortTable(table)

	// A connection asks for a maximum latency and a mean bandwidth.
	// The latency turns into a maximum distance between consecutive
	// table entries, the bandwidth into a weight.
	reserve := func(name string, vl uint8, hopDeadlineUs float64, mbps float64) core.Reservation {
		wire := 2048 + sl.HeaderBytes
		deadlineBT := int64(hopDeadlineUs * 1000 / sl.ByteTimeNs)
		distance, err := sl.DistanceForHopDeadline(deadlineBT, wire)
		if err != nil {
			log.Fatal(err)
		}
		weight := sl.WeightForBandwidth(mbps)
		r, err := port.Reserve(vl, distance, weight)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s VL%d  deadline/hop %6.0f us -> distance %2d, %g Mbps -> weight %d\n",
			name, vl, hopDeadlineUs, distance, mbps, weight)
		return r
	}

	fmt.Println("Reserving three connections:")
	voice := reserve("voice", 0, 160, 1)             // strict latency, low bandwidth
	video := reserve("video", 1, 600, 16)            // moderate latency
	backup := reserve("storage backup", 2, 5000, 64) // bandwidth only

	fmt.Println("\nHigh-priority table (slot: VL*weight):")
	fmt.Println(table)

	for vl := uint8(0); vl <= 2; vl++ {
		fmt.Printf("VL%d max distance between entries: %d slots\n", vl, table.MaxGap(vl))
	}

	// A second voice call shares the existing VL0 sequence: no new
	// slots are consumed, only weight.
	free := port.Allocator().FreeSlots()
	voice2, err := port.Reserve(0, 2, sl.WeightForBandwidth(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsecond voice call shares sequence %d (free slots still %d)\n",
		voice2.Seq, port.Allocator().FreeSlots())
	if free != port.Allocator().FreeSlots() {
		log.Fatal("sharing should not consume slots")
	}

	// Tear down and show the allocation theorem at work: after
	// releases (and automatic defragmentation) a maximally strict
	// request fits exactly when enough slots are free.
	for _, r := range []core.Reservation{voice, voice2, video, backup} {
		if err := port.Release(r); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\nafter releases: %d free slots, table empty: %v\n",
		port.Allocator().FreeSlots(), table.HighWeight() == 0)

	if err := port.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("allocator invariants hold")
}
