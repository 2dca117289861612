package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/topology"
)

// TestReconfigurationTable runs the control-plane study across fabric
// sizes and checks what holds at any size: bring-up costs grow with
// the fabric, every non-cut link gets its own live run under the same
// load while cut edges are only counted, survival stays in [0,1] with
// the worst at most the mean, and every repair that displaced a
// connection spends MADs.  Each run's own end audits (convergence,
// conservation, fabric invariants) error the study out on violation.
func TestReconfigurationTable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	cases := []struct {
		name     string
		switches int
		seed     int64
		conns    int
	}{
		{"4-switches", 4, 7, 160},
		{"8-switches", 8, 7, 320},
		{"8-switches-alt-seed", 8, 21, 320},
	}
	var prevQoSMADs int
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := reconfigAt(c.switches, c.seed, c.conns)
			res, err := reconfiguration(sc, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Hosts <= 0 {
				t.Fatalf("no hosts: %+v", res)
			}
			if res.Sweep.MADs == 0 || res.Forwarding.MADs == 0 || res.QoS.MADs == 0 {
				t.Errorf("bring-up costs incomplete: sweep %d, fwd %d, qos %d",
					res.Sweep.MADs, res.Forwarding.MADs, res.QoS.MADs)
			}

			topo, _ := topology.Generate(c.switches, c.seed)
			var want []string
			for _, l := range topo.Links() {
				after := topo.Clone()
				if after.RemoveLink(l.A.Switch, l.A.Port) == nil && after.Connected() {
					want = append(want, fmt.Sprintf("%d:%d-%d:%d", l.A.Switch, l.A.Port, l.B.Switch, l.B.Port))
				}
			}
			if len(res.Links) != len(want) || res.CutEdges != len(topo.Links())-len(want) {
				t.Fatalf("ran %d links with %d cut edges, want %d of %d links run", len(res.Links), res.CutEdges, len(want), len(topo.Links()))
			}
			for i, l := range res.Links {
				if l.Link != want[i] {
					t.Errorf("row %d failed %s, want %s", i, l.Link, want[i])
				}
				if l.Admitted != res.Links[0].Admitted {
					t.Errorf("%s: admitted %d, row 0 admitted %d: the load differs between links",
						l.Link, l.Admitted, res.Links[0].Admitted)
				}
				if l.Survival < 0 || l.Survival > 1 || l.Survival < res.WorstSurvival {
					t.Errorf("%s: survival %.3f out of [worst %.3f, 1]", l.Link, l.Survival, res.WorstSurvival)
				}
				if l.Displaced > 0 && l.RepairMADs <= 0 {
					t.Errorf("%s: displaced %d connections and repaired for free", l.Link, l.Displaced)
				}
			}
			if res.MeanSurvival < 0 || res.MeanSurvival > 1 ||
				res.WorstSurvival < 0 || res.WorstSurvival > 1 {
				t.Errorf("survival out of [0,1]: mean %.3f worst %.3f", res.MeanSurvival, res.WorstSurvival)
			}
			if res.WorstSurvival > res.MeanSurvival {
				t.Errorf("worst survival %.3f above mean %.3f", res.WorstSurvival, res.MeanSurvival)
			}
			if res.MeanRepairMADs <= 0 {
				t.Errorf("recovered from failures for free: %+v", res)
			}
			// QoS programming cost grows (weakly) with the fabric: same
			// per-port table content, more ports.
			if c.seed == 7 {
				if res.QoS.MADs < prevQoSMADs {
					t.Errorf("QoS MADs shrank with fabric size: %d -> %d", prevQoSMADs, res.QoS.MADs)
				}
				prevQoSMADs = res.QoS.MADs
			}

			var buf bytes.Buffer
			printReconfig(&buf, res)
			if !strings.Contains(buf.String(), "MADs") {
				t.Error("rendering incomplete")
			}
		})
	}
}

// TestReconfigurationRejectsDegenerateFabric: a single-switch fabric
// cannot be generated, and a two-switch fabric has only its one cut
// edge to fail.  Both errors must surface, not panic or print a
// study of nothing.
func TestReconfigurationRejectsDegenerateFabric(t *testing.T) {
	if _, err := reconfiguration(reconfigAt(1, 7, 10), 1); err == nil {
		t.Fatal("1-switch fabric accepted")
	}
	_, err := reconfiguration(reconfigAt(2, 7, 10), 1)
	if err == nil || !strings.Contains(err.Error(), "cut edge") {
		t.Fatalf("2-switch fabric: got %v, want an error naming the missing non-cut link", err)
	}
}

// reconfigAt is the control-plane study's base on the irregular fabric
// of the given size wired from seed, with conns admission attempts and
// its failures timed after the last of them.
func reconfigAt(switches int, seed int64, conns int) Scenario {
	sc := reconfigScenario(Tiny)
	sc.Seed, sc.Topology, sc.Conns = seed, irregular(switches, seed), conns
	sc.FailAtBT = max(100_000, 2*int64(conns)*admitGapBT)
	sc.HorizonBT = 2 * sc.FailAtBT
	return sc
}
