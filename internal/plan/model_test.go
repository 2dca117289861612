package plan

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/fabric"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func buildState(t *testing.T, spec topology.Spec, seed int64) *fabric.ControlState {
	t.Helper()
	topo, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := fabric.BuildControl(fabric.DefaultConfig(topo.NumSwitches, 512, seed), topo)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func beDemand(cs *fabric.ControlState, src, dst int, mbps float64) Demand {
	return Demand{
		Src: src, Dst: dst,
		SL: sl.BESL, BaseVL: cs.Mapping.VLFor(sl.BESL),
		Mbps: mbps, Wire: 512 + sl.HeaderBytes,
		IAT: traffic.IATByteTimes(512, mbps),
	}
}

func checkFinite(t *testing.T, res *Result) {
	t.Helper()
	for _, ln := range res.Lanes {
		for name, v := range map[string]float64{
			"Demand": ln.Demand, "Alloc": ln.Alloc, "Potential": ln.Potential,
			"Utilization": ln.Utilization, "WaitBT": ln.WaitBT, "QueuePkts": ln.QueuePkts,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("lane (%v, VL %d): %s = %g not finite non-negative", ln.Port, ln.VL, name, v)
			}
		}
	}
	for i, f := range res.Flows {
		for name, v := range map[string]float64{
			"Scale": f.Scale, "LatencyBT": f.LatencyBT, "RatioToDeadline": f.RatioToDeadline,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("flow %d: %s = %g not finite non-negative", i, name, v)
			}
		}
		if f.Scale > 1 {
			t.Errorf("flow %d: delivered scale %g exceeds 1", i, f.Scale)
		}
	}
	for name, v := range map[string]float64{
		"MaxUtilization": res.MaxUtilization, "OfferedBPCNode": res.OfferedBPCNode,
		"PredictedBPCNode": res.PredictedBPCNode, "MeanDelayRatio": res.MeanDelayRatio,
		"MeanQueuePkts": res.MeanQueuePkts,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Errorf("%s = %g not finite non-negative", name, v)
		}
	}
}

func TestEvaluateRejectsBadLoad(t *testing.T) {
	spec := topology.Spec{Class: topology.FatTree, K: 2}
	for _, load := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), admission.MaxLoadFactor * 2} {
		if _, err := Evaluate(spec, load, 1, Options{}); err == nil {
			t.Errorf("load %g: accepted, want out-of-range error", load)
		}
	}
}

func TestEvaluateStateRejectsMgmtVL(t *testing.T) {
	cs := buildState(t, topology.Spec{Class: topology.FatTree, K: 2}, 1)
	d := beDemand(cs, 0, 1, 10)
	d.BaseVL = arbtable.MgmtVL
	_, err := EvaluateState(cs, []Demand{d})
	if err == nil || !strings.Contains(err.Error(), "VL 15") {
		t.Fatalf("management-VL demand: err = %v, want data-VL range error", err)
	}
}

func TestEvaluateStateRejectsMalformedDemands(t *testing.T) {
	cs := buildState(t, topology.Spec{Class: topology.FatTree, K: 2}, 1)
	hosts := cs.Topo.NumHosts()
	bad := []Demand{
		func() Demand { d := beDemand(cs, -1, 1, 10); return d }(),
		func() Demand { d := beDemand(cs, 0, hosts, 10); return d }(),
		func() Demand { d := beDemand(cs, 2, 2, 10); return d }(),
		func() Demand { d := beDemand(cs, 0, 1, 10); d.Wire = 0; return d }(),
		func() Demand { d := beDemand(cs, 0, 1, math.NaN()); d.Mbps = math.NaN(); return d }(),
		func() Demand { d := beDemand(cs, 0, 1, 10); d.Mbps = math.Inf(1); return d }(),
		func() Demand { d := beDemand(cs, 0, 1, 10); d.Mbps = -3; return d }(),
	}
	for i, d := range bad {
		if _, err := EvaluateState(cs, []Demand{d}); err == nil {
			t.Errorf("malformed demand %d (%+v): accepted", i, d)
		}
	}
}

// TestIncastSaturationDetected drives the model's headline duty: every
// host pours best-effort traffic at one destination, the destination
// downlink is offered several times its capacity, and the model must
// flag the overload, scale the delivered rate down, and stay finite.
func TestIncastSaturationDetected(t *testing.T) {
	cs := buildState(t, topology.Spec{Class: topology.FatTree, K: 4}, 1)
	hosts := cs.Topo.NumHosts()
	var demands []Demand
	for h := 1; h < hosts; h++ {
		demands = append(demands, beDemand(cs, h, 0, 1500))
	}
	res, err := EvaluateState(cs, demands)
	if err != nil {
		t.Fatal(err)
	}
	checkFinite(t, res)
	if res.SaturatedLanes == 0 {
		t.Fatalf("%d hosts incasting 1500 Mbps each at one host: no lane saturated", hosts-1)
	}
	if res.Stable {
		t.Error("saturated point reported stable")
	}
	for i, f := range res.Flows {
		if f.SaturatedHops == 0 {
			t.Errorf("incast flow %d crosses the overloaded downlink but reports no saturated hop", i)
		}
		if f.Scale > 0.9 {
			t.Errorf("incast flow %d: delivered scale %g, want the overload to cut it well below 1", i, f.Scale)
		}
	}
	if res.PredictedBPCNode >= res.OfferedBPCNode {
		t.Errorf("predicted %g >= offered %g on a saturated point", res.PredictedBPCNode, res.OfferedBPCNode)
	}
}

// TestZeroWeightLaneIsSaturated: a demand on a data VL no table entry
// serves (a QoS lane with no reservation, FailoverEscape off) has zero
// potential — the model must call it saturated at clamped utilization
// rather than divide by zero.
func TestZeroWeightLaneIsSaturated(t *testing.T) {
	cs := buildState(t, topology.Spec{Class: topology.FatTree, K: 2}, 1)
	d := beDemand(cs, 0, 1, 10)
	d.SL = 4
	d.BaseVL = cs.Mapping.VLFor(4)
	res, err := EvaluateState(cs, []Demand{d})
	if err != nil {
		t.Fatal(err)
	}
	checkFinite(t, res)
	if res.SaturatedLanes == 0 {
		t.Fatal("unscheduled lane carried load but was not flagged saturated")
	}
	for _, ln := range res.Lanes {
		if ln.VL == d.BaseVL {
			if ln.Potential != 0 {
				t.Errorf("unscheduled lane potential %g, want 0", ln.Potential)
			}
			if ln.Utilization != maxUtil {
				t.Errorf("unscheduled lane utilization %g, want clamp %g", ln.Utilization, maxUtil)
			}
		}
	}
	if res.Flows[0].Scale != 0 {
		t.Errorf("flow on unscheduled lane: scale %g, want 0", res.Flows[0].Scale)
	}
}

// TestEvaluateDeterministic: identical (spec, load, seed) points must
// produce identical results — the property the golden files and the
// worker-count bit-identity test build on.
func TestEvaluateDeterministic(t *testing.T) {
	spec := topology.Spec{Class: topology.Dragonfly, A: 2, P: 1, H: 1}
	a, err := Evaluate(spec, 2, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(spec, 2, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two evaluations of the same point differ")
	}
}

// TestStablePointHasFullThroughput: with no saturation the model must
// not shave throughput, and latency must cover at least wire plus link
// time per hop.
func TestStablePointHasFullThroughput(t *testing.T) {
	res, err := Evaluate(topology.Spec{Class: topology.FatTree, K: 2}, 0.5, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkFinite(t, res)
	if !res.Stable {
		t.Fatal("load 0.5 point unexpectedly saturated")
	}
	if math.Abs(res.PredictedBPCNode-res.OfferedBPCNode) > 1e-12 {
		t.Errorf("stable point: predicted %g != offered %g", res.PredictedBPCNode, res.OfferedBPCNode)
	}
	for i, f := range res.Flows {
		floor := float64(f.Hops) * (float64(f.Wire) + float64(res.Hosts)*0) // wire time per hop at minimum
		if f.LatencyBT < floor {
			t.Errorf("flow %d: latency %g below wire-time floor %g", i, f.LatencyBT, floor)
		}
	}
}

func TestHeadroomLimits(t *testing.T) {
	// Lightly loaded fabric: headroom is positive and admission-bounded
	// (the reservation budget, not the model, runs out first at SL 4's
	// modest rates).
	h, err := Headroom(topology.Spec{Class: topology.FatTree, K: 2}, 2, 1, Options{}, 4, 128)
	if err != nil {
		t.Fatal(err)
	}
	if h.Extra <= 0 {
		t.Errorf("lightly loaded fabric: headroom %d, want positive", h.Extra)
	}
	if h.Limit != "admission" && h.Limit != "model" && h.Limit != "ceiling" {
		t.Errorf("unknown limit %q", h.Limit)
	}

	// Monotonicity: a tiny ceiling is hit before any constraint binds.
	h2, err := Headroom(topology.Spec{Class: topology.FatTree, K: 2}, 2, 1, Options{}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Extra != 3 || h2.Limit != "ceiling" {
		t.Errorf("ceiling-3 probe: extra %d limit %q, want 3/ceiling", h2.Extra, h2.Limit)
	}

	if _, err := Headroom(topology.Spec{Class: topology.FatTree, K: 2}, 2, 1, Options{}, 99, 8); err == nil {
		t.Error("unknown service level accepted")
	}
	if _, err := Headroom(topology.Spec{Class: topology.FatTree, K: 2}, 2, 1, Options{}, 4, 0); err == nil {
		t.Error("non-positive probe ceiling accepted")
	}
}
