package plan

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// HeadroomResult answers the capacity-planning question "how many more
// flows at service level X can this fabric admit on top of its current
// load before the model predicts instability?".
type HeadroomResult struct {
	SL    uint8
	Extra int // largest probe both admitted and model-stable
	// Limit names what stopped growth at Extra+1: "admission" (the
	// reservation budget rejected a flow), "model" (a lane saturated),
	// or "ceiling" (Headroom's maxExtra itself admitted and stable).
	Limit string
}

// Headroom bisects the analytical model over an increasing number of
// extra service-level-slID flows layered on top of the base load.  A
// probe of n extra flows passes when admission accepts every one of
// them AND the model finds no saturated lane; the probe sequence is
// pregenerated from one seeded source so every bisection step extends
// the same flow prefix (probe n is always a prefix of probe n+1, which
// makes "passes" monotone and the bisection sound).  Each probe
// rebuilds the control state from scratch: admission mutates arbitration
// tables, and reusing a probed state would leak reservations into the
// next probe.
func Headroom(spec topology.Spec, load float64, seed int64, opt Options, slID uint8, maxExtra int) (*HeadroomResult, error) {
	opt = opt.withDefaults()
	if maxExtra < 1 {
		return nil, fmt.Errorf("plan: headroom probe ceiling %d must be positive", maxExtra)
	}
	level, err := sl.ByID(sl.DefaultLevels, slID)
	if err != nil {
		return nil, err
	}
	topo, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	hosts := topo.NumHosts()

	// Pregenerate the probe flows once so all bisection steps share a
	// prefix.  A dedicated seed offset keeps them distinct from the base
	// fill (seed+1) and best-effort (seed+2) streams.
	src := traffic.NewSource([]sl.Level{level}, hosts, seed+3)
	extras := make([]traffic.Request, maxExtra)
	for i := range extras {
		extras[i] = src.Next()
	}
	bes := traffic.BestEffortBackground(hosts, load, seed+2)

	probe := func(n int) (bool, string, error) {
		cfg := fabric.DefaultConfig(topo.NumSwitches, opt.Payload, seed)
		cs, err := fabric.BuildControl(cfg, topo)
		if err != nil {
			return false, "", err
		}
		fill, err := cs.Adm.FillLoad(load, seed, opt.MaxConsecutiveRejects)
		if err != nil {
			return false, "", fmt.Errorf("plan: %w", err)
		}
		conns := fill.Admitted
		for _, r := range extras[:n] {
			conn, err := cs.Adm.Admit(r)
			if err != nil {
				return false, "admission", nil
			}
			conns = append(conns, conn)
		}
		res, err := EvaluateState(cs, demandsFor(cs, conns, bes, opt.Payload))
		if err != nil {
			return false, "", err
		}
		if !res.Stable {
			return false, "model", nil
		}
		return true, "", nil
	}

	// The base point itself must stand before extra flows mean anything.
	ok, limit, err := probe(0)
	if err != nil {
		return nil, err
	}
	if !ok {
		return &HeadroomResult{SL: slID, Extra: 0, Limit: limit}, nil
	}

	lo, hi := 0, maxExtra // lo passes, hi is unknown-or-failing
	ok, limit, err = probe(maxExtra)
	if err != nil {
		return nil, err
	}
	if ok {
		return &HeadroomResult{SL: slID, Extra: maxExtra, Limit: "ceiling"}, nil
	}
	failLimit := limit
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		ok, limit, err := probe(mid)
		if err != nil {
			return nil, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
			failLimit = limit
		}
	}
	return &HeadroomResult{SL: slID, Extra: lo, Limit: failLimit}, nil
}
