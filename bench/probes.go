package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mad"
	"repro/internal/plan"
	"repro/internal/routing"
	"repro/internal/routing/cdg"
	"repro/internal/sim"
	"repro/internal/sl"
	"repro/internal/topology"
)

// A probe prices one layer per unit of work from outside: a timed loop
// over the layer's exported calls, minimum of a few runs.  Probes run
// the same way in every workload's traced repetition; they say what a
// hop, a pick or a pass costs in isolation, and multiplied by the
// traced counts they estimate where the time inside Network.Run goes.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// minSeconds returns the fastest of reps runs of fn.
func minSeconds(reps int, fn func()) float64 {
	best := math.Inf(1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		best = math.Min(best, time.Since(t0).Seconds())
	}
	return best
}

// minNS returns the fastest per-operation time, in ns, of reps runs of
// fn, each of which performs ops operations.
func minNS(reps, ops int, fn func()) float64 {
	return minSeconds(reps, fn) * 1e9 / float64(ops)
}

type nopHandler struct{}

func (nopHandler) HandleEvent(sim.Event) {}

// runProbes measures every probe metric.  topo is the workload's own
// fabric (partitioning and route computation are priced on it).
func runProbes(topo *topology.Topology, seed int64, out map[string]float64) error {
	rng := rand.New(rand.NewSource(seed + 4))

	out["topology.partition_s"] = minSeconds(5, func() {
		p, err := topology.PartitionFabric(topo, 2)
		if err == nil {
			sink += p.Shards
		}
	})
	out["routing.compute_s"] = minSeconds(3, func() {
		if r, err := routing.ComputeFor(topo); err == nil {
			sink += r.Planes()
		}
	})

	k16, err := topology.Spec{Class: topology.FatTree, K: 16}.Generate()
	if err != nil {
		return err
	}
	r16, err := routing.ComputeFor(k16)
	if err != nil {
		return err
	}
	var cdgErr error
	out["routing.cdg_verify_s"] = minSeconds(3, func() {
		st, err := cdg.Verify(k16, r16)
		sink += st.Deps
		if err != nil {
			cdgErr = err
		}
	})
	if cdgErr != nil {
		return fmt.Errorf("cdg probe: %w", cdgErr)
	}

	k8, err := topology.Spec{Class: topology.FatTree, K: 8}.Generate()
	if err != nil {
		return err
	}
	r8, err := routing.ComputeFor(k8)
	if err != nil {
		return err
	}
	const pairs = 1024
	var src, dst [pairs]int
	for i := range src {
		src[i] = rng.Intn(k8.NumHosts())
		dst[i] = (src[i] + 1 + rng.Intn(k8.NumHosts()-1)) % k8.NumHosts()
	}
	out["routing.pathhops_ns"] = minNS(5, pairs, func() {
		for i := range src {
			hops, _ := r8.PathHops(src[i], dst[i], 0)
			sink += len(hops)
		}
	})

	probeCore(rng, out)

	// Arbiter pick on a loaded table: eight high-priority sequences and
	// two low-priority entries, every lane ready (the benchArbiter shape
	// of the frozen bench_test.go, so the rows stay comparable).
	table := arbtable.New(2)
	alloc := core.NewAllocator(table)
	for i := 0; i < 8; i++ {
		if _, err := alloc.Allocate(uint8(i), 8, 100+i); err != nil {
			return err
		}
	}
	table.Low = []arbtable.Entry{{VL: 10, Weight: 8}, {VL: 11, Weight: 4}}
	arb := arbtable.NewArbiter(table)
	var ready arbtable.Ready
	for vl := 0; vl < 8; vl++ {
		ready[vl] = payloadBytes + sl.HeaderBytes
	}
	ready[10], ready[11] = ready[0], ready[0]
	out["arbtable.pick_ns"] = minNS(5, 1<<16, func() {
		for i := 0; i < 1<<16; i++ {
			vl, _, _ := arb.Pick(&ready)
			sink += vl
		}
	})
	// The same arbiter with nothing ready walks both tables and gives
	// up: the cost of a stall, which about half the passes on a loaded
	// fabric are.
	var idle arbtable.Ready
	out["arbtable.stall_ns"] = minNS(5, 1<<14, func() {
		for i := 0; i < 1<<14; i++ {
			vl, _, _ := arb.Pick(&idle)
			sink += vl
		}
	})

	// Engine dispatch: one Post and one Step with 4096 events pending.
	var eng sim.Engine
	var h nopHandler
	const pending = 4096
	eng.Grow(pending + 1)
	for i := int64(0); i < pending; i++ {
		eng.Post(i, h, sim.Event{})
	}
	out["sim.dispatch_ns"] = minNS(5, 1<<16, func() {
		for i := 0; i < 1<<16; i++ {
			eng.Post(eng.Now()+pending, h, sim.Event{})
			eng.Step()
		}
	})

	for _, radix := range []int{8, 32} {
		var st fabric.ISLIPState
		var req [topology.SwitchPorts]uint32
		var match [topology.SwitchPorts]int8
		for i := 0; i < radix; i++ {
			req[i] = uint32(uint64(1)<<radix - 1)
		}
		out[fmt.Sprintf("fabric.islip_match_r%d_ns", radix)] = minNS(5, 1<<12, func() {
			for i := 0; i < 1<<12; i++ {
				sink += st.Match(&req, fabric.DefaultISLIPIters, &match)
			}
		})
	}

	// One 16-entry table block through the MAD codec, as the in-band
	// programmer sends and the port receives it.
	var block [core.BlockEntries]arbtable.Entry
	for i := range block {
		block[i] = arbtable.Entry{VL: uint8(i % 8), Weight: uint8(1 + i)}
	}
	var madErr error
	out["mad.block_roundtrip_ns"] = minNS(5, 1<<12, func() {
		for i := 0; i < 1<<12; i++ {
			pkt, err := mad.HighBlockSMP(uint64(i), i%core.NumHighBlocks, core.NumHighBlocks, block[:])
			if err != nil {
				madErr = err
				return
			}
			wire, err := pkt.Marshal()
			if err != nil {
				madErr = err
				return
			}
			back, err := mad.Unmarshal(wire)
			if err != nil {
				madErr = err
				return
			}
			entries, err := mad.DecodeArbBlock(back.Data)
			if err != nil {
				madErr = err
				return
			}
			sink += len(entries)
		}
	})
	if madErr != nil {
		return fmt.Errorf("mad probe: %w", madErr)
	}

	var planErr error
	out["plan.evaluate_ms"] = 1e3 * minSeconds(3, func() {
		res, err := plan.Evaluate(topology.Spec{Class: topology.FatTree, K: 8}, qosLoadFactor, seed, plan.Options{Payload: payloadBytes})
		if err != nil {
			planErr = err
			return
		}
		sink += res.Admitted
	})
	if planErr != nil {
		return fmt.Errorf("plan probe: %w", planErr)
	}

	return probeAdmission(seed, out)
}

// probeCore prices the fill-in algorithm on one port table held near
// 75% full: a resident population takes the table to 48 of 64 slots,
// then batches of mixed requests are reserved and released again.
func probeCore(rng *rand.Rand, out map[string]float64) {
	pt := core.NewPortTable(arbtable.New(arbtable.UnlimitedHigh))
	request := func() (vl uint8, distance, weight int) {
		lv := sl.DefaultLevels[rng.Intn(len(sl.DefaultLevels))]
		mbps := lv.MinMbps + rng.Float64()*(lv.MaxMbps-lv.MinMbps)
		return lv.SL, lv.Distance, sl.WeightForBandwidth(mbps)
	}
	for tries := 0; pt.Allocator().FreeSlots() > core.TableSize/4 && tries < 1000; tries++ {
		vl, d, w := request()
		// Refusals are part of the mix; the resident set is what fits.
		_, _ = pt.Reserve(vl, d, w)
	}

	const batch, rounds = 16, 256
	type req struct {
		vl   uint8
		d, w int
	}
	reqs := make([]req, batch*rounds)
	for i := range reqs {
		reqs[i].vl, reqs[i].d, reqs[i].w = request()
	}
	var reserveS, releaseS float64
	releases := 0
	held := make([]core.Reservation, 0, batch)
	measure := func() {
		reserveS, releaseS, releases = 0, 0, 0
		for r := 0; r < rounds; r++ {
			held = held[:0]
			t0 := time.Now()
			for _, q := range reqs[r*batch : (r+1)*batch] {
				if res, err := pt.Reserve(q.vl, q.d, q.w); err == nil {
					held = append(held, res)
				}
			}
			t1 := time.Now()
			for _, res := range held {
				// A reservation just made is always releasable.
				_ = pt.Release(res)
			}
			reserveS += t1.Sub(t0).Seconds()
			releaseS += time.Since(t1).Seconds()
			releases += len(held)
		}
	}
	bestReserve, bestRelease := math.Inf(1), math.Inf(1)
	for i := 0; i < 5; i++ {
		measure()
		bestReserve = math.Min(bestReserve, reserveS*1e9/float64(len(reqs)))
		bestRelease = math.Min(bestRelease, releaseS*1e9/float64(max(releases, 1)))
	}
	out["core.reserve_ns"] = bestReserve
	out["core.release_ns"] = bestRelease
	out["core.defragment_ns"] = minNS(5, 1<<10, func() {
		for i := 0; i < 1<<10; i++ {
			sink += pt.Allocator().Defragment()
		}
	})
}

// probeAdmission times single Admit and Release calls in a closed loop
// like admit-k8's, on a control state of its own.
func probeAdmission(seed int64, out map[string]float64) error {
	s, _ := specByName("admit-k8")
	const calls = 20_000
	r, err := setupAdmit(s, seed, calls, nil, false)
	if err != nil {
		return fmt.Errorf("admission probe: %w", err)
	}
	var admitNS, releaseNS []float64
	r.admitNS, r.releaseNS = &admitNS, &releaseNS
	r.step()
	if len(r.errs) > 0 {
		return fmt.Errorf("admission probe: %w", r.errs[0])
	}
	sort.Float64s(admitNS)
	sort.Float64s(releaseNS)
	out["admission.admit_us_p50"] = quantile(admitNS, 0.50) / 1e3
	out["admission.admit_us_p99"] = quantile(admitNS, 0.99) / 1e3
	out["admission.release_us_p50"] = quantile(releaseNS, 0.50) / 1e3
	out["admission.release_us_p99"] = quantile(releaseNS, 0.99) / 1e3
	return nil
}
