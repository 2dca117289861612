package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/faults"
	"repro/internal/sl"
	"repro/internal/subnet"
	"repro/internal/topology"
)

// reconfigScenario is the control-plane study's base at scale s: the
// failover scenario on the evaluation's irregular fabric at s, on at
// least three switches (the fewest with a link that is not a cut edge),
// with 40 QoS admission attempts per switch, all before the failures
// are applied at FailAtBT/2 so that the repair cost counts repair
// traffic alone.
func reconfigScenario(s Scale) Scenario {
	sc := failoverScenario(Tiny)
	sc.Seed, sc.Topology = 42, evaluationScenario(s).Topology
	sc.Topology.Switches = max(3, sc.Topology.Switches)
	sc.Conns = 40 * sc.Topology.Switches
	sc.FailAtBT = max(sc.FailAtBT, 2*int64(sc.Conns)*admitGapBT)
	sc.HorizonBT = 2 * sc.FailAtBT
	return sc
}

// reconfigResult reports the control-plane study: what it costs the
// subnet manager to bring up the paper's QoS configuration, and what a
// single-link failure costs the live fabric (the fault-granularity
// story of the paper's introduction).
type reconfigResult struct {
	Scenario Scenario `json:"scenario"` // its wiring seed is Seed, which wires the fabric
	Hosts    int      `json:"hosts"`

	// Initial bring-up.
	Sweep      subnet.Costs `json:"sweep"`
	Forwarding subnet.Costs `json:"forwarding"`
	QoS        subnet.Costs `json:"qos"`

	// Link-failure recovery: one live failover run per inter-switch
	// link that is not a cut edge, each under the same load, failing
	// its link for good.  Cut edges are counted, not run.
	CutEdges       int           `json:"cutEdges"`
	Links          []linkFailure `json:"links"`
	MeanSurvival   float64       `json:"meanSurvival"`
	WorstSurvival  float64       `json:"worstSurvival"`
	MeanRepairMADs float64       `json:"meanRepairMADs"`
}

// linkFailure is the live run that failed one inter-switch link.
type linkFailure struct {
	Link       string  `json:"link"` // "switch:port-switch:port"
	Admitted   int     `json:"admitted"`
	Displaced  int64   `json:"displaced"`
	Readmitted int64   `json:"readmitted"`
	Stopped    int     `json:"stopped"`
	Survival   float64 `json:"survival"`   // 1 - Stopped/Admitted
	RepairMADs int     `json:"repairMADs"` // in-band MADs from the failure to the end of the drain
}

// reconfiguration runs the control-plane study on sc's irregular
// fabric, wired from sc's seed: the subnet manager's bring-up, then one
// live failover run of sc per non-cut inter-switch link, whose Failures
// fail that link for good at FailAtBT, fanned out over workers.  The
// rows differ only in the failed link.
func reconfiguration(sc Scenario, workers int) (reconfigResult, error) {
	sc = sc.seeded(sc.Seed)
	res := reconfigResult{Scenario: sc}
	if last := int64(sc.Conns-1)*admitGapBT + 1; sc.FailAtBT/2 <= last {
		return res, refuse("FailAtBT, Conns", "the failures applied at FailAtBT/2 = %d BT must follow the last admission attempt at %d BT", sc.FailAtBT/2, last)
	}
	topo, err := topology.Generate(sc.Topology.Switches, sc.Seed)
	if err != nil {
		return res, err
	}
	res.Hosts = topo.NumHosts()

	m := subnet.NewManager(topo)
	if res.Sweep, err = m.Discover(); err != nil {
		return res, err
	}
	if res.Forwarding, err = m.ProgramForwarding(); err != nil {
		return res, err
	}
	ports := admission.NewPorts(topo, arbtable.UnlimitedHigh, nil)
	if res.QoS, err = m.ProgramQoS(ports, sl.IdentityMapping()); err != nil {
		return res, err
	}

	var names, fails []string
	for _, l := range topo.Links() {
		cut := topo.Clone()
		if err := cut.RemoveLink(l.A.Switch, l.A.Port); err != nil {
			return res, err
		}
		if !cut.Connected() {
			res.CutEdges++
			continue
		}
		names = append(names, fmt.Sprintf("%d:%d-%d:%d", l.A.Switch, l.A.Port, l.B.Switch, l.B.Port))
		fails = append(fails, faults.Schedule{{Kind: faults.FailLink, Switch: l.A.Switch, Port: l.A.Port, At: sc.FailAtBT}}.String())
	}
	if len(names) == 0 {
		return res, refuse("Topology.Switches", "the %d-switch fabric has no inter-switch link that is not a cut edge", topo.NumSwitches)
	}
	res.Links, err = sameSeed(sc, names, workers, func(i int, sc Scenario) (linkFailure, error) {
		sc.Failures = fails[i]
		r, err := failoverRun(sc)
		return linkFailure{
			Link: names[i], Admitted: r.Admitted,
			Displaced: r.Control.FlowsDisplaced, Readmitted: r.Readmitted, Stopped: r.StoppedConns,
			Survival:   1 - float64(r.StoppedConns)/float64(r.Admitted),
			RepairMADs: r.RepairMADs,
		}, err
	})
	if err != nil {
		return res, err
	}
	res.WorstSurvival = 1
	for _, l := range res.Links {
		res.MeanSurvival += l.Survival
		res.WorstSurvival = min(res.WorstSurvival, l.Survival)
		res.MeanRepairMADs += float64(l.RepairMADs)
	}
	res.MeanSurvival /= float64(len(res.Links))
	res.MeanRepairMADs /= float64(len(res.Links))
	return res, nil
}

// printReconfig renders the control-plane study, one row per failed
// link.
func printReconfig(w io.Writer, r reconfigResult) {
	fmt.Fprintf(w, "Control plane — subnet manager bring-up and live link-failure repair (%d switches, %d hosts)\n",
		r.Scenario.Topology.Switches, r.Hosts)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "discovery sweep\t%d MADs\t%d devices\n", r.Sweep.MADs, r.Sweep.Devices)
	fmt.Fprintf(tw, "forwarding tables\t%d MADs\n", r.Forwarding.MADs)
	fmt.Fprintf(tw, "QoS state (SLtoVL + arbitration)\t%d MADs\n\n", r.QoS.MADs)
	fmt.Fprintln(tw, "failed link\tadmitted\tdispl\treadm\tstopped\tsurvival\trepair MADs")
	for _, l := range r.Links {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.1f%%\t%d\n",
			l.Link, l.Admitted, l.Displaced, l.Readmitted, l.Stopped, 100*l.Survival, l.RepairMADs)
	}
	tw.Flush()
	fmt.Fprintf(w, "\n%d links failed (plus %d cut edges); survival mean/worst %.1f%% / %.1f%%; mean repair cost %.0f MADs\n",
		len(r.Links), r.CutEdges, 100*r.MeanSurvival, 100*r.WorstSurvival, r.MeanRepairMADs)
}
