package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/sl"
	"repro/internal/subnet"
	"repro/internal/topology"
)

// ReconfigResult reports the control-plane study: what it costs the
// subnet manager to bring up the paper's QoS configuration, and what a
// single-link failure costs the live fabric (the fault-granularity
// story of the paper's introduction).
type ReconfigResult struct {
	Switches int   `json:"switches"`
	Hosts    int   `json:"hosts"`
	Seed     int64 `json:"seed"`
	Conns    int   `json:"conns"` // QoS admission attempts per run

	// Initial bring-up.
	Sweep      subnet.Costs `json:"sweep"`
	Forwarding subnet.Costs `json:"forwarding"`
	QoS        subnet.Costs `json:"qos"`

	// Link-failure recovery: one live failover run per inter-switch
	// link that is not a cut edge, each under the same load, failing
	// its link for good.  Cut edges are counted, not run.
	CutEdges       int           `json:"cutEdges"`
	Links          []LinkFailure `json:"links"`
	MeanSurvival   float64       `json:"meanSurvival"`
	WorstSurvival  float64       `json:"worstSurvival"`
	MeanRepairMADs float64       `json:"meanRepairMADs"`
}

// LinkFailure is the live run that failed one inter-switch link.
type LinkFailure struct {
	Link       string  `json:"link"` // "switch:port-switch:port"
	Admitted   int     `json:"admitted"`
	Displaced  int64   `json:"displaced"`
	Readmitted int64   `json:"readmitted"`
	Stopped    int     `json:"stopped"`
	Survival   float64 `json:"survival"`   // 1 - Stopped/Admitted
	RepairMADs int     `json:"repairMADs"` // in-band MADs from the failure to the end of the drain
}

// Reconfiguration runs the control-plane study on the irregular fabric
// topology.Generate(switches, seed): the subnet manager's bring-up,
// then one live failover run per non-cut inter-switch link with conns
// QoS admission attempts, fanned out over workers.  Every run uses the
// same topology and seed, so the rows differ only in the failed link.
func Reconfiguration(switches int, seed int64, conns, workers int) (ReconfigResult, error) {
	topo, err := topology.Generate(switches, seed)
	if err != nil {
		return ReconfigResult{}, err
	}
	res := ReconfigResult{Switches: switches, Hosts: topo.NumHosts(), Seed: seed, Conns: conns}

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

	// The failover scenario on this fabric.  The schedule is applied at
	// FailAtBT/2, after the last admission attempt, so the repair cost
	// counts repair traffic alone.  One permanent failure is repaired
	// long before twice its time.
	sc := FailoverScenario(Tiny)
	sc.Topology, sc.Seed, sc.Conns = irregular(switches, seed), seed, conns
	sc.FailAtBT = max(sc.FailAtBT, 2*int64(conns)*admitGapBT)
	sc.HorizonBT = 2 * sc.FailAtBT
	var names []string
	var fails []faults.Schedule
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
		fails = append(fails, faults.Schedule{{Kind: faults.FailLink, Switch: l.A.Switch, Port: l.A.Port, At: sc.FailAtBT}})
	}
	if len(names) == 0 {
		return res, fmt.Errorf("experiments: reconfiguration: the %d-switch fabric has no inter-switch link that is not a cut edge", switches)
	}
	res.Links, err = sameSeed(sc, names, workers, func(i int, sc Scenario) (LinkFailure, error) {
		r, err := failoverRun(sc, func(*fabric.Network, []*fabric.Flow) (faults.Schedule, error) {
			return fails[i], nil
		})
		return LinkFailure{
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

// PrintReconfig renders the control-plane study, one row per failed
// link.
func PrintReconfig(w io.Writer, r ReconfigResult) {
	fmt.Fprintf(w, "Control plane — subnet manager bring-up and live link-failure repair (%d switches, %d hosts)\n",
		r.Switches, r.Hosts)
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
