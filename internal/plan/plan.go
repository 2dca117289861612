// Package plan is the analytical capacity planner: a closed-form
// weighted-round-robin queueing model evaluated over the fabric's
// ACTUAL control structures — the generated topology, the per-class
// routes of routing.ComputeFor, and the real filled-in arbitration
// tables (high and low weights, limit-of-high) that admission control
// programmed — predicting per-VL/per-hop utilization, mean queue
// depth and end-to-end latency/throughput in microseconds instead of
// simulating for minutes (ROADMAP item 16, after Mandal et al.'s WRR
// NoC analysis).
//
// The model is a fluid two-tier weighted max-min allocation per output
// port: each port's offered load is accumulated per wire VL over every
// flow's routing.PathHops, the high-priority table's backlogged lanes
// split the link in proportion to their table weights (the fluid limit
// of WRR rotation), the low-priority table divides what the high tier
// leaves (bounded by Table.HighLimitFraction when a limit-of-high
// preempts), and a lane is SATURATED when its offered load exceeds the
// capacity it could claim fully backlogged.  Waiting times come from
// an M/D/1-style decomposition — mean residual work over the lane's
// available service rate — which is exact for Poisson arrivals and a
// recognized approximation for the CBR sources simulated here; see
// DESIGN.md §14 for the derivation and validity region.
package plan

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/fabric"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Demand is one offered flow: endpoints, service level, its base VL
// under the SLtoVL mapping, and the CBR rate expressed as wire bytes
// per interarrival period (exactly the quantities the simulator's
// generator uses, so model and simulator meter the same offer).
type Demand struct {
	Src, Dst int
	SL       uint8
	BaseVL   uint8
	Mbps     float64
	Wire     int   // payload + header bytes per packet
	IAT      int64 // interarrival period, byte times
	QoS      bool
	Deadline int64 // end-to-end guarantee, byte times (QoS only)
}

// rate returns the demand's offered load as a fraction of link
// bandwidth (bytes per byte time).
func (d Demand) rate() float64 {
	iat := d.IAT
	if iat < 1 {
		iat = 1
	}
	return float64(d.Wire) / float64(iat)
}

// LaneState is the model's verdict on one (port, VL) arbitration lane
// that carries load.
type LaneState struct {
	Port admission.PortID
	VL   uint8

	Demand    float64 // offered load, fraction of link bandwidth
	Alloc     float64 // fluid WRR allocation under contention
	Potential float64 // capacity the lane could claim fully backlogged

	Utilization float64 // Demand / Potential, clamped to maxUtil
	Saturated   bool    // Demand exceeds Potential
	WaitBT      float64 // mean queueing wait per packet, byte times
	QueuePkts   float64 // mean queue depth (Little's law)
}

// FlowPred is the model's prediction for one offered flow.
type FlowPred struct {
	Demand

	Scale         float64 // delivered fraction of the offered rate
	SaturatedHops int     // path hops riding a saturated lane
	Hops          int

	// LatencyBT is the predicted end-to-end sojourn (queueing + wire +
	// link latency summed over hops), and RatioToDeadline normalizes it
	// by the admission deadline.  Meaningful only on unsaturated paths;
	// saturated flows report the clamped-utilization value.
	LatencyBT       float64
	RatioToDeadline float64
}

// Result is one evaluated (control state, offered load) point.
type Result struct {
	Hosts    int
	Switches int
	Planes   int
	Attempts int
	Admitted int
	Rejected int
	BEFlows  int

	Flows []FlowPred
	Lanes []LaneState // loaded lanes only, deterministic order

	SaturatedLanes int
	MaxUtilization float64
	Stable         bool // no lane saturated

	OfferedBPCNode   float64 // offered bytes / byte time / host
	PredictedBPCNode float64 // predicted delivered bytes / byte time / host

	// MeanDelayRatio averages predicted latency / deadline over QoS
	// flows whose paths are fully unsaturated (comparable with the
	// simulator's delay-ratio ordering in the stable region).
	MeanDelayRatio float64
	MeanQueuePkts  float64 // mean queue depth over loaded lanes
}

// Options parameterizes Evaluate's admission fill, mirroring the scale
// experiment's knobs so a plan point and a scale point offer identical
// traffic to identical tables.
type Options struct {
	Payload               int // packet payload bytes (default 512)
	MaxConsecutiveRejects int // admission fill stop condition (default 20)
}

func (o Options) withDefaults() Options {
	if o.Payload == 0 {
		o.Payload = 512
	}
	if o.MaxConsecutiveRejects == 0 {
		o.MaxConsecutiveRejects = 20
	}
	return o
}

// Evaluate builds the control state for a topology spec — the same
// fabric.BuildControl the simulator constructs its network from — runs
// the simulator's admission fill at the given load factor
// (admission.Controller.FillLoad, which refuses a load outside
// (0, admission.MaxLoadFactor]), and evaluates the analytical model over
// the resulting tables and offered flows.  The whole evaluation is pure
// arithmetic over the control plane: no packet is ever simulated.
func Evaluate(spec topology.Spec, load float64, seed int64, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	topo, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	cfg := fabric.DefaultConfig(topo.NumSwitches, opt.Payload, seed)
	cs, err := fabric.BuildControl(cfg, topo)
	if err != nil {
		return nil, err
	}
	fill, err := cs.Adm.FillLoad(load, seed, opt.MaxConsecutiveRejects)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	bes := traffic.BestEffortBackground(topo.NumHosts(), load, seed+2)
	demands := demandsFor(cs, fill.Admitted, bes, opt.Payload)

	res, err := EvaluateState(cs, demands)
	if err != nil {
		return nil, err
	}
	res.Attempts = fill.Attempts
	res.Admitted = len(fill.Admitted)
	res.Rejected = fill.Rejected
	res.BEFlows = len(bes)
	return res, nil
}

// demandsFor converts admitted connections and best-effort background
// into model demands, deriving each rate exactly as the simulator's
// flow constructor does (wire bytes over the integer-truncated
// interarrival period).
func demandsFor(cs *fabric.ControlState, conns []*admission.Conn, bes []traffic.BestEffort, payload int) []Demand {
	wire := payload + sl.HeaderBytes
	out := make([]Demand, 0, len(conns)+len(bes))
	for _, c := range conns {
		out = append(out, Demand{
			Src: c.Req.Src, Dst: c.Req.Dst,
			SL:     c.Req.Level.SL,
			BaseVL: cs.Mapping.VLFor(c.Req.Level.SL),
			Mbps:   c.Req.Mbps,
			Wire:   wire,
			IAT:    traffic.IATByteTimes(payload, c.Req.Mbps),
			QoS:    true, Deadline: c.Deadline,
		})
	}
	for _, be := range bes {
		out = append(out, Demand{
			Src: be.Src, Dst: be.Dst,
			SL:     be.SL,
			BaseVL: cs.Mapping.VLFor(be.SL),
			Mbps:   be.Mbps,
			Wire:   wire,
			IAT:    traffic.IATByteTimes(payload, be.Mbps),
		})
	}
	return out
}

// maxUtil clamps reported utilizations: a saturated lane's nominal
// demand/potential ratio can be arbitrarily large (or infinite for a
// lane no table entry serves), and JSON cannot carry Inf.
const maxUtil = 1e6

// lane accumulates one (port, VL) arbitration lane.
type lane struct {
	vl        uint8
	dem       float64 // offered fraction of link
	wireSum   float64 // rate-weighted wire bytes, for mean packet time
	hiW, loW  float64 // table weights serving the lane
	alloc     float64
	potential float64
	wait      float64
}

func (ln *lane) meanWire() float64 {
	if ln.dem <= 0 {
		return 0
	}
	return ln.wireSum / ln.dem
}

// portModel is one output port's arbitration point: its loaded lanes
// and the active table that schedules them.
type portModel struct {
	id    admission.PortID
	lanes []*lane
	tbl   *arbtable.Table
}

func (pm *portModel) lane(vl uint8) *lane {
	for _, ln := range pm.lanes {
		if ln.vl == vl {
			return ln
		}
	}
	ln := &lane{vl: vl}
	pm.lanes = append(pm.lanes, ln)
	return ln
}

// allocate runs the two-tier fluid WRR allocation and returns the
// per-lane capacity grants.  boost >= 0 raises that lane's demand
// beyond link capacity, yielding the capacity it could claim if
// unboundedly backlogged (its "potential").
func (pm *portModel) allocate(boost int) []float64 {
	n := len(pm.lanes)
	dem := make([]float64, n)
	hiW := make([]float64, n)
	loW := make([]float64, n)
	hiWire, loWire := 0.0, 0.0
	hiRate, loRate := 0.0, 0.0
	lowBacklogged := false
	for i, ln := range pm.lanes {
		dem[i] = ln.dem
		if boost == i {
			dem[i] = 2.0 // beyond link capacity: never satisfied
		}
		hiW[i], loW[i] = ln.hiW, ln.loW
		if dem[i] <= 0 {
			continue
		}
		if hiW[i] > 0 {
			hiWire += ln.wireSum
			hiRate += ln.dem
		}
		if loW[i] > 0 {
			loWire += ln.wireSum
			loRate += ln.dem
			if hiW[i] == 0 {
				lowBacklogged = true
			}
		}
	}

	// Tier 1: the high table.  Its backlogged lanes split the link in
	// weight proportion; a limit-of-high caps the tier only while low
	// packets are actually waiting (arbiter rule: the limit counter
	// resets whenever a low packet is served or none waits).
	hiCap := 1.0
	if lowBacklogged && pm.tbl.Limit != arbtable.UnlimitedHigh {
		meanHi := mean(hiWire, hiRate)
		meanLo := mean(loWire, loRate)
		hiCap = pm.tbl.HighLimitFraction(int(meanHi), int(meanLo))
	}
	hiDem := make([]float64, n)
	for i := range dem {
		if hiW[i] > 0 {
			hiDem[i] = dem[i]
		}
	}
	hiAlloc := waterfill(hiCap, hiDem, hiW)

	// Tier 2: the low table divides whatever the high tier left (the
	// arbiter is work-conserving: an idle high table yields the slot).
	rest := 1.0
	for _, a := range hiAlloc {
		rest -= a
	}
	loDem := make([]float64, n)
	for i := range dem {
		if loW[i] > 0 {
			if r := dem[i] - hiAlloc[i]; r > 0 {
				loDem[i] = r
			}
		}
	}
	loAlloc := waterfill(rest, loDem, loW)

	// Capacity the low tier could not use flows back to limit-capped
	// high lanes (the limit only bites while low packets wait).
	if hiCap < 1 {
		spare := rest
		for _, a := range loAlloc {
			spare -= a
		}
		if spare > 1e-12 {
			resid := make([]float64, n)
			for i := range dem {
				if hiW[i] > 0 {
					if r := dem[i] - hiAlloc[i]; r > 0 {
						resid[i] = r
					}
				}
			}
			extra := waterfill(spare, resid, hiW)
			for i := range hiAlloc {
				hiAlloc[i] += extra[i]
			}
		}
	}

	alloc := make([]float64, n)
	for i := range alloc {
		alloc[i] = hiAlloc[i] + loAlloc[i]
	}
	return alloc
}

func mean(sum, rate float64) float64 {
	if rate <= 0 {
		return 0
	}
	return sum / rate
}

// solve fills every lane's allocation, potential and waiting time.
func (pm *portModel) solve(linkLatency int64) {
	alloc := pm.allocate(-1)
	for i, ln := range pm.lanes {
		ln.alloc = alloc[i]
	}
	for i, ln := range pm.lanes {
		ln.potential = pm.allocate(i)[i]
	}
	// Mean residual work an arriving packet finds in service: every
	// loaded lane contributes half its packet time weighted by its
	// load (the M/G/1 residual; deterministic service, so S²/2S = S/2).
	residual := 0.0
	for _, ln := range pm.lanes {
		residual += 0.5 * ln.dem * ln.meanWire()
	}
	for _, ln := range pm.lanes {
		if ln.dem <= 0 {
			ln.wait = 0
			continue
		}
		u := laneUtil(ln)
		if u > 0.995 {
			u = 0.995 // keep saturated waits finite; the flag carries the verdict
		}
		ln.wait = residual / (1 - u)
	}
	_ = linkLatency
}

// laneUtil is demand over potential, the utilization of the lane's
// available service capacity.
func laneUtil(ln *lane) float64 {
	if ln.potential <= 0 {
		if ln.dem > 0 {
			return maxUtil
		}
		return 0
	}
	u := ln.dem / ln.potential
	if u > maxUtil {
		u = maxUtil
	}
	return u
}

// satEps absorbs float round-off when comparing demand to potential:
// a lane exactly at capacity is saturated only beyond this margin.
const satEps = 1e-9

// EvaluateState runs the analytical model over an existing control
// state and offered demands, without any admission fill: the caller
// owns the tables (typically via fabric.BuildControl plus admissions)
// and the demand vector.  Demands on the management VL are rejected —
// VL 15 has absolute priority and is outside the WRR model.
func EvaluateState(cs *fabric.ControlState, demands []Demand) (*Result, error) {
	topo := cs.Topo
	hosts := topo.NumHosts()

	ports := make(map[admission.PortID]*portModel)
	portFor := func(id admission.PortID, tbl *arbtable.Table) *portModel {
		pm, ok := ports[id]
		if !ok {
			pm = &portModel{id: id, tbl: tbl}
			ports[id] = pm
		}
		return pm
	}

	paths := make([][]*lane, len(demands))
	for i, d := range demands {
		if d.BaseVL >= arbtable.NumVLs || d.BaseVL == arbtable.MgmtVL {
			return nil, fmt.Errorf("plan: demand %d rides VL %d; the model covers data VLs 0..%d",
				i, d.BaseVL, arbtable.NumDataVLs-1)
		}
		if d.Src < 0 || d.Src >= hosts || d.Dst < 0 || d.Dst >= hosts || d.Src == d.Dst {
			return nil, fmt.Errorf("plan: demand %d endpoints (%d,%d) invalid for %d hosts", i, d.Src, d.Dst, hosts)
		}
		if d.Wire < 1 || d.Mbps <= 0 || math.IsNaN(d.Mbps) || math.IsInf(d.Mbps, 0) {
			return nil, fmt.Errorf("plan: demand %d malformed (wire %d, %g Mbps)", i, d.Wire, d.Mbps)
		}
		hops, err := cs.Routes.PathHops(d.Src, d.Dst, d.BaseVL)
		if err != nil {
			return nil, err
		}
		rate := d.rate()
		refs := make([]*lane, len(hops))
		for j, h := range hops {
			var pm *portModel
			if h.Switch < 0 {
				pm = portFor(admission.HostPortID(d.Src), cs.Ports.Host[d.Src].Active())
			} else {
				pm = portFor(admission.SwitchPortID(h.Switch, h.Port), cs.Ports.Switch[h.Switch][h.Port].Active())
			}
			ln := pm.lane(h.WireVL)
			ln.dem += rate
			ln.wireSum += rate * float64(d.Wire)
			refs[j] = ln
		}
		paths[i] = refs
	}

	// Deterministic evaluation order (and output order): host ports
	// ascending, then switch ports by (switch, port); lanes by VL.
	ids := make([]admission.PortID, 0, len(ports))
	for id := range ports {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return portLess(ids[a], ids[b]) })

	res := &Result{Hosts: hosts, Switches: topo.NumSwitches, Planes: cs.Routes.Planes()}
	for _, id := range ids {
		pm := ports[id]
		sort.Slice(pm.lanes, func(a, b int) bool { return pm.lanes[a].vl < pm.lanes[b].vl })
		for _, ln := range pm.lanes {
			ln.hiW = float64(pm.tbl.HighWeightForVL(ln.vl))
			ln.loW = float64(pm.tbl.LowWeightForVL(ln.vl))
		}
		pm.solve(fabric.LinkLatency)
		for _, ln := range pm.lanes {
			if ln.dem <= 0 {
				continue
			}
			u := laneUtil(ln)
			saturated := ln.dem > ln.potential+satEps
			wire := ln.meanWire()
			queue := 0.0
			if wire > 0 {
				queue = (ln.dem / wire) * ln.wait // Little: packets/bt * wait
			}
			res.Lanes = append(res.Lanes, LaneState{
				Port: pm.id, VL: ln.vl,
				Demand: ln.dem, Alloc: ln.alloc, Potential: ln.potential,
				Utilization: u, Saturated: saturated,
				WaitBT: ln.wait, QueuePkts: queue,
			})
			if saturated {
				res.SaturatedLanes++
			}
			if u > res.MaxUtilization {
				res.MaxUtilization = u
			}
			res.MeanQueuePkts += queue
		}
	}
	if len(res.Lanes) > 0 {
		res.MeanQueuePkts /= float64(len(res.Lanes))
	}
	res.Stable = res.SaturatedLanes == 0

	// Per-flow predictions: throughput scales by the tightest hop's
	// allocation ratio, latency sums hop waits plus wire and link time.
	delaySum, delayN := 0.0, 0
	for i, d := range demands {
		rate := d.rate()
		pred := FlowPred{Demand: d, Scale: 1.0, Hops: len(paths[i])}
		for _, ln := range paths[i] {
			if ln.dem > ln.potential+satEps {
				pred.SaturatedHops++
			}
			if ln.dem > 0 && ln.alloc < ln.dem {
				if s := ln.alloc / ln.dem; s < pred.Scale {
					pred.Scale = s
				}
			}
			pred.LatencyBT += ln.wait + float64(d.Wire) + float64(fabric.LinkLatency)
		}
		if d.Deadline > 0 {
			pred.RatioToDeadline = pred.LatencyBT / float64(d.Deadline)
		}
		res.Flows = append(res.Flows, pred)
		res.OfferedBPCNode += rate
		res.PredictedBPCNode += rate * pred.Scale
		if d.QoS && d.Deadline > 0 && pred.SaturatedHops == 0 {
			delaySum += pred.RatioToDeadline
			delayN++
		}
	}
	if hosts > 0 {
		res.OfferedBPCNode /= float64(hosts)
		res.PredictedBPCNode /= float64(hosts)
	}
	if delayN > 0 {
		res.MeanDelayRatio = delaySum / float64(delayN)
	}
	return res, nil
}

// portLess orders arbitration points: host interfaces ascending, then
// switch ports by (switch, port).
func portLess(a, b admission.PortID) bool {
	if (a.Host >= 0) != (b.Host >= 0) {
		return a.Host >= 0
	}
	if a.Host >= 0 {
		return a.Host < b.Host
	}
	if a.Switch != b.Switch {
		return a.Switch < b.Switch
	}
	return a.Port < b.Port
}
