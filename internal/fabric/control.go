package fabric

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/routing"
	"repro/internal/sl"
	"repro/internal/topology"
)

// ControlState is the control-plane half of a fabric: everything a
// configuration and a topology determine before any simulation state
// exists — routes, the SLtoVL mapping, one arbitration table per
// output port (low tables seeded for the best-effort lanes), and the
// admission controller wired over them.  NewWithTopology builds its
// Network on top of one, and the analytical capacity planner
// (internal/plan) evaluates its queueing model over one, so the
// simulator and the model see byte-identical tables by construction.
type ControlState struct {
	Topo    *topology.Topology
	Routes  *routing.Routes
	Mapping sl.Mapping
	Ports   *admission.Ports
	Adm     *admission.Controller
}

// BuildControl derives the control state for a configuration over an
// existing topology: routes, mapping (collapsed onto the routing
// engine's base plane when it claims escape planes), per-port
// arbitration tables with the low-priority entries installed, and the
// admission controller with its wire factor, packet size and collapsed
// distances set.
func BuildControl(cfg Config, topo *topology.Topology) (*ControlState, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if topo.NumSwitches != cfg.Switches {
		return nil, fmt.Errorf("fabric: topology has %d switches, config says %d",
			topo.NumSwitches, cfg.Switches)
	}
	routes, err := routing.ComputeFor(topo)
	if err != nil {
		return nil, err
	}
	// A multi-plane routing engine owns the upper data VLs as escape
	// copies of the lower ones, so the SLtoVL mapping must collapse
	// onto the base plane.
	mapping, dataVLs, err := sl.MappingFor(cfg.DataVLs, routes.Planes())
	if err != nil {
		return nil, err
	}
	ports := admission.NewPorts(topo, cfg.Limit, cfg.lowEntries(mapping, routes.Planes()))

	adm := admission.NewController(topo, routes, mapping, ports)
	// Reservations must cover wire bytes, not just payload, so that
	// the header overhead of small packets cannot erode guarantees.
	adm.WireFactor = float64(cfg.PayloadBytes+sl.HeaderBytes) / float64(cfg.PayloadBytes)
	adm.PacketWire = cfg.PayloadBytes + sl.HeaderBytes
	if dataVLs > 0 && dataVLs < arbtable.NumDataVLs {
		adm.Distances = sl.EffectiveDistances(sl.DefaultLevels, mapping)
	}

	return &ControlState{
		Topo:    topo,
		Routes:  routes,
		Mapping: mapping,
		Ports:   ports,
		Adm:     adm,
	}, nil
}

// lowEntries builds the low-priority table every port of the fabric is
// seeded with: one entry per best-effort service level, copies on the
// escape planes of multi-plane engines, and — under FailoverEscape —
// weight-1 entries keeping every remaining data lane draining.
func (cfg Config) lowEntries(mapping sl.Mapping, planes int) []arbtable.Entry {
	low := []arbtable.Entry{
		{VL: mapping.VLFor(sl.PBESL), Weight: lowWeightPBE},
		{VL: mapping.VLFor(sl.BESL), Weight: lowWeightBE},
		{VL: mapping.VLFor(sl.CHSL), Weight: lowWeightCH},
	}
	// Multi-plane engines carry best-effort traffic on the escape
	// copies of the base VLs too; without low-table entries for them
	// those lanes would never be scheduled.
	for plane := 1; plane < planes; plane++ {
		for _, e := range low[:3] {
			low = append(low, arbtable.Entry{
				VL: sl.PlaneVL(e.VL, plane, planes), Weight: e.Weight,
			})
		}
	}
	if cfg.FailoverEscape {
		// Weight-1 escape entries for every data VL not already served
		// by the low table, so lanes whose reservations a failure
		// recovery released keep draining (see Config.FailoverEscape).
		var have [arbtable.NumDataVLs]bool
		for _, e := range low {
			have[e.VL] = true
		}
		for vl := 0; vl < arbtable.NumDataVLs; vl++ {
			if !have[vl] {
				low = append(low, arbtable.Entry{VL: uint8(vl), Weight: 1})
			}
		}
	}
	return low
}
