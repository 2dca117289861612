// Package experiments contains one runner per table and figure of the
// paper's evaluation (section 4), plus the ablations, control-plane
// studies and fabric studies built on them.
//
// Every run is a Scenario: one plain value naming the topology, the
// fabric configuration, the load offered to it (a QoS fill, best
// effort), the control-plane events it goes through (connection churn,
// SMP faults, link failures), the warm-up, window and horizon, and what
// to record.  build wires a scenario's network in one fixed order —
// fabric, subnet manager and in-band programmer, fault injector and
// auditor, failure recovery — and offer loads it.  An experiment is
// then a base Scenario per Scale, an axis of edits to it with its seed
// rule, and the projection of the executed runs onto the rows or
// series it reports.  DESIGN.md maps every experiment to its runner.
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Packet payloads of the evaluation: the paper contrasts a small and a
// large packet size.
const (
	smallPayload = 256
	largePayload = 2048
)

// EvaluationScenario is the paired small/large-packet evaluation's base
// at scale s, shared by the ablations built on it: the irregular fabric
// filled with connections until admission refuses MaxRejects in a row,
// plus best-effort background.  Full is the paper's 16 switches and 64
// hosts, measured until the smallest-bandwidth connection has received
// a statistically useful number of packets; Quick is a 4-switch network
// with a short window; Tiny is the smallest meaningful configuration.
func EvaluationScenario(s Scale) Scenario {
	sc := Scenario{
		Seed: 42, Topology: irregular(2, 42), Fabric: fabric.DefaultConfig(0, smallPayload, 0),
		Saturate: true, MaxRejects: 60, BEMbps: 100, WarmupIATs: 1, MinPackets: 6,
	}
	switch s {
	case Quick:
		sc.Topology.Switches, sc.MaxRejects, sc.BEMbps, sc.WarmupIATs, sc.MinPackets = 4, 400, 150, 2, 12
	case Full:
		sc.Topology.Switches, sc.MaxRejects, sc.BEMbps, sc.WarmupIATs, sc.MinPackets = 16, 1000, 200, 2, 100
	}
	return sc
}

// mergedDelay merges the delay distributions of flows, in order.
func mergedDelay(flows []*fabric.Flow) *stats.DelayCDF {
	all := stats.NewDelayCDF()
	for _, f := range flows {
		all.Merge(&f.Delay)
	}
	return all
}

// delayBySL merges the per-connection delay distributions of each
// service level.
func (r *Run) delayBySL() map[uint8]*stats.DelayCDF {
	out := make(map[uint8]*stats.DelayCDF)
	for _, f := range r.Flows {
		d, ok := out[f.SL]
		if !ok {
			d = stats.NewDelayCDF()
			out[f.SL] = d
		}
		d.Merge(&f.Delay)
	}
	return out
}

// bestWorst returns the connections of a service level with the
// highest and lowest percentage of packets delivered before the
// threshold with the given index into stats.DelayFractions.  Flows
// without samples are skipped.
func (r *Run) bestWorst(slID uint8, thresholdIdx int) (best, worst *fabric.Flow) {
	for _, f := range r.Flows {
		if f.SL != slID || f.Delay.Total() == 0 {
			continue
		}
		if best == nil || f.Delay.PercentBelow(thresholdIdx) > best.Delay.PercentBelow(thresholdIdx) {
			best = f
		}
		if worst == nil || f.Delay.PercentBelow(thresholdIdx) < worst.Delay.PercentBelow(thresholdIdx) {
			worst = f
		}
	}
	return best, worst
}

// slIDs returns the service levels present among the run's flows, in
// ascending order.
func (r *Run) slIDs() []uint8 {
	seen := make(map[uint8]bool)
	for _, f := range r.Flows {
		seen[f.SL] = true
	}
	out := make([]uint8, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Evaluation bundles the two executed runs (small and large packets)
// all table/figure extractors derive from, so the expensive
// simulations happen once.
type Evaluation struct {
	Small, Large *Run
}

// Evaluate executes the small- and large-packet runs of sc on workers
// goroutines (each run is single-goroutine; independent runs fan out).
func Evaluate(sc Scenario, workers int) (*Evaluation, error) {
	payloads := []int{smallPayload, largePayload}
	runs, err := sameSeed(sc, []string{"small-packets", "large-packets"}, workers, func(i int, sc Scenario) (*Run, error) {
		sc.Fabric.PayloadBytes = payloads[i]
		return measured(sc)
	})
	if err != nil {
		return nil, err
	}
	return &Evaluation{Small: runs[0], Large: runs[1]}, nil
}

// sameSeed runs point on one edit of sc per name, every job at sc's
// seed, which also wires the fabric: the axis of the ablations built on
// the evaluation.
func sameSeed[T any](sc Scenario, names []string, workers int, point func(i int, sc Scenario) (T, error)) ([]T, error) {
	sc = sc.seeded(sc.Seed)
	jobs := make([]runner.Job[T], len(names))
	for i, name := range names {
		jobs[i] = runner.Job[T]{Name: name, Seed: sc.Seed, Run: func(int64) (T, error) { return point(i, sc) }}
	}
	return runner.Sweep(jobs, workers)
}

// gridSweep runs point at every (spec, load) of the grid, spec-major,
// each at sc.at(spec, load, seed) with a seed derived from sc's and the
// point's index.
func gridSweep[T any](sc Scenario, specs []topology.Spec, loads []float64, workers int,
	point func(Scenario) (T, error)) ([]T, error) {
	var jobs []runner.Job[T]
	for _, spec := range specs {
		for _, load := range loads {
			jobs = append(jobs, runner.Job[T]{
				Name: fmt.Sprintf("%s-load%g", spec.Label(), load),
				Seed: runner.DeriveSeed(sc.Seed, len(jobs)),
				Run: func(seed int64) (T, error) {
					return point(sc.at(spec, load, seed))
				},
			})
		}
	}
	return runner.Sweep(jobs, workers)
}
