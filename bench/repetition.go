package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"text/tabwriter"
	"time"
)

// repetition is everything one process measured on one workload.  An
// untraced repetition carries the end-to-end metrics; a traced one the
// per-layer metrics.
type repetition struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`

	EndToEnd map[string]float64 `json:"endToEnd,omitempty"`
	PerLayer map[string]float64 `json:"perLayer,omitempty"`
	// Counts are simulated quantities that must repeat exactly across
	// repetitions of one workload at one seed and size.
	Counts map[string]float64 `json:"counts"`

	SetupS   []float64 `json:"setupS"`
	WindowMS []float64 `json:"windowMS"`
	Work     []float64 `json:"work"` // work units each timed window completed

	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

// exactCounts are compared between repetitions, and between the
// untraced and traced passes of one traced repetition.
var exactCounts = []string{"sim.events", "fabric.delivered_pkts", "admission.admitted", "subnet.mads"}

func (rep *repetition) absorb(p *pass) {
	rep.Attempted += p.attempted
	rep.Failed += p.failed
	rep.Failures = append(rep.Failures, p.failures...)
}

func (rep *repetition) fail(format string, args ...any) {
	rep.Attempted++
	rep.Failed++
	rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...))
}

func pickCounts(p *pass) map[string]float64 {
	out := map[string]float64{}
	for _, name := range exactCounts {
		out[name] = p.counts[name]
	}
	return out
}

func toMS(seconds []float64) []float64 {
	out := make([]float64, len(seconds))
	for i, s := range seconds {
		out[i] = s * 1e3
	}
	return out
}

// runUntraced is the measurement every end-to-end number comes from.
func runUntraced(s spec, seed int64, seconds int, sz sizes) (*repetition, error) {
	p, err := runPass(s, seed, sz, nil, false)
	if err != nil {
		return nil, err
	}
	rep := &repetition{Workload: s.name, Seed: seed, Seconds: seconds, Counts: pickCounts(p),
		SetupS: p.setupS, WindowMS: toMS(p.windowS), Work: p.work}
	rep.absorb(p)
	rep.EndToEnd = map[string]float64{
		mSetup:  median(p.setupS),
		mWork:   p.workPerSecond(),
		mHeap:   p.heapMB,
		mAccept: ratio(p.accepted, p.offered),
	}
	return rep, nil
}

// runTraced produces the per-layer numbers.  It runs the same windows
// twice in one process — untraced, then with metrics, hooks and spans
// on — so counts from the traced pass can be divided by the wall time
// of the untraced one and the difference between the two is the
// tracing overhead.  Both passes are half a normal repetition long.
func runTraced(s spec, seed int64, seconds int, sz sizes, traceDir string, w io.Writer) (*repetition, error) {
	sz.resetup = 0
	sz.windows = max(sz.windows/2, 2)
	rep := &repetition{Workload: s.name, Seed: seed, Seconds: seconds, Traced: true}

	plain, err := runPass(s, seed, sz, nil, false)
	if err != nil {
		return nil, err
	}
	rep.absorb(plain)
	tr := newTracer(s.name)
	traced, err := runPass(s, seed, sz, tr, true)
	if err != nil {
		return nil, err
	}
	rep.absorb(traced)
	rep.Counts = pickCounts(traced)
	rep.SetupS = append(plain.setupS, traced.setupS...)
	rep.WindowMS = toMS(plain.windowS)
	for _, name := range exactCounts {
		if a, b := plain.counts[name], traced.counts[name]; a != b {
			rep.fail("%s differs between two passes of one seed: %v untraced, %v traced", name, a, b)
		}
	}

	out := map[string]float64{}
	for name, v := range traced.counts {
		out[name] = v
	}
	wall := plain.timedSeconds()
	out["sim.events_per_s"] = ratio(out["sim.events"], wall)
	out["fabric.hops_per_s"] = ratio(out["fabric.hops"], wall)
	out["fabric.voq_passes_per_s"] = ratio(out["fabric.voq_passes"], wall)
	windowMS := toMS(plain.windowS)
	sort.Float64s(windowMS)
	out["sim.window_ms_p50"] = quantile(windowMS, 0.5)
	out["sim.window_ms_p90"] = quantile(windowMS, 0.9)
	out["metrics.traced_overhead_ratio"] = ratio(traced.timedSeconds(), wall)

	if other, ok := specByName(s.pair); ok {
		// The honest sharded speed-up: the same fabric and traffic on
		// one engine and on two shards, in this process.  Either
		// workload of the pair runs the other as its reference, so the
		// coordinator's numbers are the sharded pass's on both.
		ref, err := runPass(other, seed, sz, nil, false)
		if err != nil {
			return nil, err
		}
		rep.absorb(ref)
		sharded, single := plain, ref
		if other.shards > 1 {
			sharded, single = ref, plain
		}
		out["sim.shard_speedup"] = ratio(sharded.workPerSecond(), single.workPerSecond())
		out["sim.shard_event_drift"] = ratio(math.Abs(sharded.counts["sim.events"]-single.counts["sim.events"]), single.counts["sim.events"])
		for _, name := range []string{"sim.windows", "sim.barriers", "sim.events_per_window"} {
			out[name] = sharded.counts[name]
		}
	}

	total, _ := totalsByName(tr.spans)
	out["topology.generate_s"] = total["topology.Generate"].Seconds()
	out["fabric.new_s"] = (total["fabric.NewWithTopology"] + total["fabric.BuildControl"]).Seconds()
	out["admission.fill_share"] = ratio(total["admission.fill"].Seconds(), total["setup"].Seconds())

	topo, err := fatTree(s.k, nil)
	if err != nil {
		return nil, err
	}
	out["fabric.bytes_per_switch"] = traced.heapMB * 1e6 / float64(topo.NumSwitches)
	id := tr.begin("probes")
	err = runProbes(topo, seed, out)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	rep.PerLayer = map[string]float64{}
	for _, m := range perLayer {
		rep.PerLayer[m.Name] = out[m.Name]
	}
	if traceDir != "" {
		if err := tr.writeChromeTrace(filepath.Join(traceDir, "trace-"+s.name+".json")); err != nil {
			return nil, err
		}
	}
	printBreakdown(w, s.name, tr, out, wall)
	return rep, nil
}

// printBreakdown prints where the traced repetition's host time went:
// driver-side spans with self time, then estimates for the layers
// inside Network.Run, which the driver cannot see into.  An estimate
// is a probe cost times a traced count over the untraced wall time of
// the same windows; what they leave over is printed as unattributed.
// In-program spans are a later issue (ROADMAP item 5).
func printBreakdown(w io.Writer, workload string, tr *tracer, m map[string]float64, wall float64) {
	total, self := totalsByName(tr.spans)
	names := make([]string, 0, len(total))
	for name := range total {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return total[names[i]] > total[names[j]] })
	fmt.Fprintf(w, "%s traced repetition, driver-side spans:\n", workload)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  span\ttotal ms\tself ms")
	for _, name := range names {
		fmt.Fprintf(tw, "  %s\t%.1f\t%.1f\n", name, ms(total[name]), ms(self[name]))
	}
	tw.Flush()

	estimates := []struct {
		layer string
		ns    float64
	}{
		{"arbtable pick", m["arbtable.pick_ns"] * m["arbtable.picks"]},
		{"arbtable stall", m["arbtable.stall_ns"] * m["arbtable.picks"] * ratio(m["arbtable.stall_ratio"], 1-m["arbtable.stall_ratio"])},
		{"sim dispatch", m["sim.dispatch_ns"] * m["sim.events"]},
		{"iSLIP match", m["fabric.islip_match_r8_ns"] * m["fabric.voq_passes"]},
		{"MAD codec", m["mad.block_roundtrip_ns"] * m["subnet.mads"]}, // the whole run's MADs: an upper estimate
	}
	if wall <= 0 || m["sim.events"] == 0 {
		return
	}
	fmt.Fprintf(w, "%s estimated shares of the %.0f ms inside the timed windows (probe cost x traced count):\n", workload, wall*1e3)
	rest := 1.0
	for _, e := range estimates {
		share := e.ns / 1e9 / wall
		rest -= share
		fmt.Fprintf(w, "  %-14s %5.1f%%\n", e.layer, 100*share)
	}
	fmt.Fprintf(w, "  %-14s %5.1f%%  (fabric forwarding, queues, credits, flow statistics)\n", "unattributed", 100*rest)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
