// Package repro's top-level benchmarks regenerate every table and
// figure of the paper (at the Tiny scale so `go test -bench .` stays
// fast; run `ibsim -scale full` for paper-scale numbers) and measure
// the hot paths of the core library.  EXPERIMENTS.md records the
// paper-vs-measured comparison produced by these harnesses.
package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/arbtable"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/sl"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// --- Experiment benchmarks: one per table/figure (DESIGN.md T1-A3) ---

// BenchmarkTable1SLConfig regenerates Table 1 (service levels).
func BenchmarkTable1SLConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Table1(); len(rows) != 10 {
			b.Fatal("bad Table 1")
		}
	}
}

// evaluate runs the paired small/large simulation once per iteration.
func evaluate(b *testing.B) *experiments.Evaluation {
	b.Helper()
	ev, err := experiments.Evaluate(experiments.Tiny())
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

// BenchmarkTable2Throughput regenerates Table 2 (traffic, utilization
// and reservation for both packet sizes).
func BenchmarkTable2Throughput(b *testing.B) {
	var last [2]experiments.Table2Row
	for i := 0; i < b.N; i++ {
		last = evaluate(b).Table2()
	}
	b.ReportMetric(last[0].HostUtilization, "%util-small")
	b.ReportMetric(last[1].HostUtilization, "%util-large")
	b.ReportMetric(last[0].DeadlineMetPercent, "%deadline-small")
	b.ReportMetric(last[1].DeadlineMetPercent, "%deadline-large")
}

// BenchmarkFigure4DelayDistribution regenerates Figure 4 (packet delay
// distribution per SL, both packet sizes).
func BenchmarkFigure4DelayDistribution(b *testing.B) {
	var f4 experiments.Figure4Result
	for i := 0; i < b.N; i++ {
		f4 = evaluate(b).Figure4()
	}
	// The paper's claim: every SL delivers all packets by the deadline.
	worst := 100.0
	for _, s := range append(f4.Small, f4.Large...) {
		if p := s.Percent[len(s.Percent)-1]; p < worst {
			worst = p
		}
	}
	b.ReportMetric(worst, "%worst-SL-deadline")
}

// BenchmarkFigure5Jitter regenerates Figure 5 (jitter per SL).
func BenchmarkFigure5Jitter(b *testing.B) {
	var series []experiments.JitterSeries
	for i := 0; i < b.N; i++ {
		series = evaluate(b).Figure5()
	}
	central := 100.0
	for _, s := range series {
		if s.Samples > 10 && s.Percent[5] < central {
			central = s.Percent[5]
		}
	}
	b.ReportMetric(central, "%worst-central-jitter")
}

// BenchmarkFigure6BestWorst regenerates Figure 6 (best vs worst
// connection of the strictest SLs).
func BenchmarkFigure6BestWorst(b *testing.B) {
	var series []experiments.BestWorstSeries
	for i := 0; i < b.N; i++ {
		series = evaluate(b).Figure6()
	}
	spread := 0.0
	for _, s := range series {
		for i := range s.Best {
			if d := s.Best[i] - s.Worst[i]; d > spread {
				spread = d
			}
		}
	}
	b.ReportMetric(spread, "max-best-worst-spread-pp")
}

// BenchmarkAblationPrioritySplit regenerates the priority-split
// ablation (DB victim goodput, new vs old scheme).
func BenchmarkAblationPrioritySplit(b *testing.B) {
	var res experiments.PrioritySplitResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationPrioritySplit(7)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.NewSchemeGoodput, "goodput-new")
	b.ReportMetric(res.OldSchemeGoodput, "goodput-old")
}

// BenchmarkAblationFillStrategies regenerates the fill-policy ablation
// (bit-reversal vs natural first fit).
func BenchmarkAblationFillStrategies(b *testing.B) {
	var rows [2]experiments.FillPolicyResult
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationFillPolicies(20, 3)
	}
	b.ReportMetric(rows[0].MeanFillUntilReject, "fills-bitrev")
	b.ReportMetric(rows[1].MeanFillUntilReject, "fills-natural")
	b.ReportMetric(rows[1].Serviceability, "serviceability-natural")
}

// BenchmarkScalingNetworkSize regenerates the network-size sweep (the
// paper evaluates 8-64 switches and reports similar results).
func BenchmarkScalingNetworkSize(b *testing.B) {
	var rows []experiments.ScalingRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Scaling(experiments.Tiny(), []int{2, 4})
	}
	worst := 100.0
	for _, r := range rows {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		if r.DeadlineMetPercent < worst {
			worst = r.DeadlineMetPercent
		}
	}
	b.ReportMetric(worst, "%worst-deadline")
}

// --- Micro-benchmarks on the hot paths ---

// BenchmarkAllocate measures the fill-in algorithm: a burst of mixed
// allocations filling the table, then a reset.
func BenchmarkAllocate(b *testing.B) {
	distances := []int{64, 32, 16, 8}
	table := arbtable.New(arbtable.UnlimitedHigh)
	alloc := core.NewAllocator(table)
	var live []core.SeqID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := alloc.Allocate(uint8(i%14), distances[i%len(distances)], 1+i%500)
		if err != nil {
			// Table full: release everything and continue.
			b.StopTimer()
			for _, id := range live {
				seq := alloc.Lookup(id)
				if seq != nil {
					alloc.RemoveWeight(id, seq.Weight)
				}
			}
			live = live[:0]
			b.StartTimer()
			continue
		}
		live = append(live, s.ID)
	}
}

// BenchmarkReserveRelease measures the sharing layer under churn,
// including defragmentation on release.
func BenchmarkReserveRelease(b *testing.B) {
	port := core.NewPortTable(arbtable.New(arbtable.UnlimitedHigh))
	for i := 0; i < b.N; i++ {
		r1, err := port.Reserve(uint8(i%10), 8, 40)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := port.Reserve(uint8(i%10), 32, 300)
		if err != nil {
			b.Fatal(err)
		}
		port.Release(r1)
		port.Release(r2)
	}
}

// BenchmarkDefragment measures a worst-ish-case defragmentation pass:
// a fragmented table with sequences of every size.
func BenchmarkDefragment(b *testing.B) {
	build := func() *core.Allocator {
		a := core.NewAllocator(arbtable.New(arbtable.UnlimitedHigh))
		ids := make([]core.SeqID, 0, 16)
		for i := 0; i < 16; i++ {
			s, err := a.Allocate(uint8(i%14), 16, 200)
			if err != nil {
				break
			}
			ids = append(ids, s.ID)
		}
		// Free every other sequence without letting the release-side
		// defragmentation tidy up, by using the naive policy? No —
		// release defragments; measure the pass on the live layout.
		for i := 0; i < len(ids); i += 2 {
			if s := a.Lookup(ids[i]); s != nil {
				a.RemoveWeight(ids[i], s.Weight)
			}
		}
		return a
	}
	a := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Defragment()
	}
}

// benchArbiter builds the loaded arbiter shared by the Pick benchmarks
// and the alloc-budget gates.
func benchArbiter(tb testing.TB) (*arbtable.Arbiter, *arbtable.Ready) {
	tb.Helper()
	table := arbtable.New(2)
	alloc := core.NewAllocator(table)
	for i := 0; i < 8; i++ {
		if _, err := alloc.Allocate(uint8(i), 8, 100+i); err != nil {
			tb.Fatal(err)
		}
	}
	table.Low = []arbtable.Entry{{VL: 10, Weight: 8}, {VL: 11, Weight: 4}}
	arb := arbtable.NewArbiter(table)
	var ready arbtable.Ready
	for vl := 0; vl < 8; vl++ {
		ready[vl] = 282
	}
	ready[10], ready[11] = 282, 282
	return arb, &ready
}

// BenchmarkArbiterPick measures the output-port scheduler under a
// loaded table, with observability disabled (the default).  The 0
// allocs/op report is the zero-overhead contract.
func BenchmarkArbiterPick(b *testing.B) {
	arb, ready := benchArbiter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := arb.Pick(ready); !ok {
			b.Fatal("nothing picked")
		}
	}
}

// BenchmarkArbiterPickInstrumented is the same hot path with metrics
// counters attached and every pick recorded into the trace ring —
// still 0 allocs/op; the observability layer adds arithmetic, not
// allocation.
func BenchmarkArbiterPickInstrumented(b *testing.B) {
	arb, ready := benchArbiter(b)
	var c metrics.ArbCounters
	arb.SetMetrics(&c)
	trace := metrics.NewTraceBuffer(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vl, _, ok := arb.Pick(ready)
		if !ok {
			b.Fatal("nothing picked")
		}
		lp := arb.Last()
		trace.Record(metrics.TraceEvent{
			Time: int64(i), Port: 0, VL: uint8(vl), High: lp.High,
			Entry: int16(lp.Entry), WeightLeft: int32(lp.Residual),
		})
	}
	if c.Picks == 0 {
		b.Fatal("counters not attached")
	}
}

// BenchmarkArbiterPickFaultsDisabled is the scheduling pass as the
// fabric runs it with fault injection disabled: the nil-injector
// availability query (the one extra branch the faults layer costs)
// followed by the pick.  Still 0 allocs/op — the acceptance bar for
// the fault-injection subsystem's disabled state.
func BenchmarkArbiterPickFaultsDisabled(b *testing.B) {
	arb, ready := benchArbiter(b)
	var inj *faults.Injector // nil: faults disabled
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if until := inj.BlockedUntil(faults.HostKey(0), int64(i)); until > int64(i) {
			b.Fatal("nil injector blocked the port")
		}
		if _, _, ok := arb.Pick(ready); !ok {
			b.Fatal("nothing picked")
		}
	}
}

// BenchmarkPerHopForwarding measures the full data-plane packet path
// in steady state: one op is one packet generated at a host, arbitrated
// onto the wire, forwarded through the switch crossbar and delivered at
// its destination — every event the fabric schedules per packet,
// including the engine's heap work.  Metrics are disabled (the
// default), so the 0 allocs/op report is the zero-garbage contract of
// the typed-event hot path.
func BenchmarkPerHopForwarding(b *testing.B) {
	net, err := fabric.New(fabric.DefaultConfig(2, 256, 41))
	if err != nil {
		b.Fatal(err)
	}
	conn, err := net.Adm.Admit(traffic.Request{Src: 0, Dst: 7, Level: sl.DefaultLevels[9], Mbps: 64})
	if err != nil {
		b.Fatal(err)
	}
	net.AddConnection(conn)
	net.Start()
	// Warm-up: let queues, pools and the event heap reach their
	// steady-state capacity.
	net.Engine.Run(1 << 22)
	_, delivered, _ := net.Totals()
	var target int64
	cond := func() bool {
		_, d, _ := net.Totals()
		return d < target
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target = delivered + int64(i) + 1
		net.Engine.RunWhile(cond)
	}
}

// BenchmarkVOQForward measures the same full packet path through the
// input-queued switch models: VOQ enqueue, crossbar scheduling pass
// (iSLIP or the exact MWM oracle), arbitration-table lane pick, and
// delivery.  The 0 allocs/op report is the VOQ half of the zero-
// garbage contract ci.sh gates.
func BenchmarkVOQForward(b *testing.B) {
	for _, model := range []fabric.SwitchModel{fabric.ModelVOQISLIP, fabric.ModelVOQMWM} {
		model := model
		b.Run(model.String(), func(b *testing.B) {
			cfg := fabric.DefaultConfig(2, 256, 41)
			cfg.SwitchModel = model
			net, err := fabric.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			conn, err := net.Adm.Admit(traffic.Request{Src: 0, Dst: 7, Level: sl.DefaultLevels[9], Mbps: 64})
			if err != nil {
				b.Fatal(err)
			}
			net.AddConnection(conn)
			net.Start()
			net.Engine.Run(1 << 22)
			_, delivered, _ := net.Totals()
			var target int64
			cond := func() bool {
				_, d, _ := net.Totals()
				return d < target
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				target = delivered + int64(i) + 1
				net.Engine.RunWhile(cond)
			}
		})
	}
}

// BenchmarkRouting measures up*/down* route computation for the
// paper's 16-switch network.
func BenchmarkRouting(b *testing.B) {
	topo, err := topology.Generate(16, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.Compute(topo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine measures raw event throughput of the simulation
// core: a chain of closure events one byte time apart, and one typed
// Post + Step with 4 096 events pending — posted a packet's wire time
// ahead (near: a timing-wheel bucket) or beyond the wheel's window
// (far: overflow heap, migration, bucket; farDelay is in
// alloc_test.go).
func BenchmarkEngine(b *testing.B) {
	b.Run("chain", func(b *testing.B) {
		var e sim.Engine
		count := 0
		var tick func()
		tick = func() {
			count++
			if count < b.N {
				e.After(1, tick)
			}
		}
		b.ResetTimer()
		e.At(0, tick)
		e.Run(int64(b.N) + 10)
	})
	for _, c := range []struct {
		name  string
		delay int64
	}{{"near", 700}, {"far", farDelay}} {
		b.Run(c.name, func(b *testing.B) {
			var e sim.Engine
			var h nopHandler
			const pending = 4096
			e.Grow(pending + 1)
			for i := int64(0); i < pending; i++ {
				e.Post(i*c.delay/pending, h, sim.Event{})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Post(e.Now()+c.delay, h, sim.Event{})
				e.Step()
			}
		})
	}
}

// BenchmarkFillUntilReject measures the acceptance trial used by the
// fill-policy ablation.
func BenchmarkFillUntilReject(b *testing.B) {
	for i := 0; i < b.N; i++ {
		baseline.FillUntilReject(int64(i), core.BitReversal)
	}
}

// BenchmarkDelayCDF measures the statistics hot path (one Add per
// delivered packet in the simulator).
func BenchmarkDelayCDF(b *testing.B) {
	d := stats.NewDelayCDF()
	for i := 0; i < b.N; i++ {
		d.Add(float64(i%100) / 100)
	}
}

// BenchmarkAblationVLCollapse regenerates the VL-collapse ablation.
func BenchmarkAblationVLCollapse(b *testing.B) {
	var rows []experiments.VLCollapseRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationVLCollapse(experiments.Tiny(), []int{15, 4})
	}
	for _, r := range rows {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	b.ReportMetric(float64(rows[0].Connections), "conns-15vl")
	b.ReportMetric(float64(rows[1].Connections), "conns-4vl")
}

// BenchmarkAblationSwitchModels regenerates the switch-model ablation.
func BenchmarkAblationSwitchModels(b *testing.B) {
	var rows []experiments.SwitchModelRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationSwitchModels(experiments.Tiny(), []int{1, 2})
	}
	for _, r := range rows {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	b.ReportMetric(rows[0].WorstDelayRatio, "worst-delay-speedup1")
	b.ReportMetric(rows[1].WorstDelayRatio, "worst-delay-speedup2")
}

// BenchmarkExtensionVBR regenerates the VBR reservation experiment.
func BenchmarkExtensionVBR(b *testing.B) {
	var res experiments.VBRResult
	for i := 0; i < b.N; i++ {
		res = experiments.AblationVBR(11, 4, 8, 2, 10)
	}
	if res.MeanReserved.Err != nil || res.PeakReserved.Err != nil {
		b.Fatal(res.MeanReserved.Err, res.PeakReserved.Err)
	}
	b.ReportMetric(res.MeanReserved.WorstDelayRatio, "worst-mean-reserved")
	b.ReportMetric(res.PeakReserved.WorstDelayRatio, "worst-peak-reserved")
}

// BenchmarkReconfiguration regenerates the control-plane study:
// subnet-manager bring-up plus recovery from every single-link
// failure.
func BenchmarkReconfiguration(b *testing.B) {
	var res experiments.ReconfigResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Reconfiguration(8, 7, 100)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.MeanSurvival, "%mean-survival")
	b.ReportMetric(res.MeanReconfMADs, "reconf-MADs")
}

// sweepBenchJobs builds the 16-config sweep (two fabric sizes, eight
// seeds each) used by BenchmarkSweepWorkers.  Each job is a full
// independent simulation: build the network, admit connections, run
// warm-up plus measurement, and return the delivered-byte total as a
// cheap cross-worker checksum.
func sweepBenchJobs() []runner.Job[int64] {
	var jobs []runner.Job[int64]
	for _, sw := range []int{2, 3} {
		for seed := int64(42); seed < 50; seed++ {
			sw, seed := sw, seed
			jobs = append(jobs, runner.Job[int64]{
				Name: fmt.Sprintf("bench-%dsw-seed%d", sw, seed),
				Seed: seed,
				Run: func(context.Context, int64) (int64, error) {
					p := experiments.Tiny()
					p.Switches = sw
					p.Seed = seed
					run, err := experiments.SetupWith(p, experiments.SmallPayload, nil)
					if err != nil {
						return 0, err
					}
					run.Execute()
					_, delivered, _ := run.Net.Totals()
					return delivered, nil
				},
			})
		}
	}
	return jobs
}

// BenchmarkSweepWorkers measures wall-clock time of the same
// 16-config sweep at several worker counts.  On a multi-core host the
// 4- and 8-worker variants should show the near-linear speedup the
// parallel runner exists for (compare ns/op across sub-benchmarks;
// per-config results are bit-identical regardless of worker count —
// TestParallelRunnerDeterminism is the correctness gate).  On a
// single-core host all variants collapse to sequential speed.
func BenchmarkSweepWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var checksum int64
			for i := 0; i < b.N; i++ {
				results := runner.Sweep(context.Background(), sweepBenchJobs(),
					runner.Options{Workers: workers})
				if err := runner.FirstError(results); err != nil {
					b.Fatal(err)
				}
				sum := int64(0)
				for _, r := range results {
					sum += r.Value
				}
				if checksum == 0 {
					checksum = sum
				} else if sum != checksum {
					b.Fatalf("sweep checksum changed between iterations: %d then %d", checksum, sum)
				}
			}
			b.ReportMetric(float64(len(sweepBenchJobs())), "configs")
		})
	}
}
