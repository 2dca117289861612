// The recovery tests drive the subnet manager's recovery, which imports
// package fabric, so they live in the external test package.
package fabric_test

import (
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/routing/cdg"
	"repro/internal/sl"
	"repro/internal/subnet"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// buildFailoverNet creates a small irregular network of the given switch
// model with the escape entries and the subnet manager's recovery
// enabled, plus a handful of tracked QoS connections spanning the
// fabric.
func buildFailoverNet(t *testing.T, model fabric.SwitchModel, switches int, seed int64) (*fabric.Network, *subnet.Manager, *subnet.Recovery, []*fabric.Flow) {
	t.Helper()
	cfg := fabric.DefaultConfig(switches, 256, seed)
	cfg.FailoverEscape = true
	cfg.SwitchModel = model
	topo, err := topology.Generate(cfg.Switches, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	n, err := fabric.NewWithTopology(cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	m := subnet.NewManager(n.Topo)
	m.Routes = n.Routes
	rec, err := m.EnableRecovery(n)
	if err != nil {
		t.Fatal(err)
	}
	hosts := n.Topo.NumHosts()
	var flows []*fabric.Flow
	for i := 0; i < 8; i++ {
		src := (i * 3) % hosts
		dst := (i*7 + hosts/2) % hosts
		if src == dst {
			continue
		}
		conn, err := n.Adm.Admit(traffic.Request{
			Src: src, Dst: dst, Level: sl.DefaultLevels[8], Mbps: 16,
		})
		if err != nil {
			continue // some pairs reject on small fabrics; enough remain
		}
		f := n.AddConnection(conn)
		rec.Track(conn, f)
		flows = append(flows, f)
	}
	if len(flows) < 3 {
		t.Fatalf("only %d connections admitted", len(flows))
	}
	return n, m, rec, flows
}

// runRecovery runs n to until, one poll period at a time, so that each
// activation is seen on its own, and after each requires the manager's
// view to follow it: its routes are the ones the data plane forwards
// on, and its topology is the degraded fabric the repair ran over.  It
// returns the activation count.
func runRecovery(t *testing.T, n *fabric.Network, m *subnet.Manager, rec *subnet.Recovery, until int64) int64 {
	t.Helper()
	seen := n.ControlCounters().RepairsCompleted
	for at := n.Now(); at < until; {
		at = min(at+subnet.PollBT, until)
		n.Run(at)
		if done := n.ControlCounters().RepairsCompleted; done != seen {
			seen = done
			if m.Routes != n.Routes || m.Topo != rec.Degraded() {
				t.Fatalf("after activation %d the manager's view is not the fabric's", done)
			}
		}
	}
	return seen
}

// drainAndCheck stops generation, drains the fabric and verifies
// packet conservation including lost packets (injected == delivered +
// lost once nothing is queued; a packet dropped at a full source queue
// was never injected) and every fabric invariant (CheckInvariants).
func drainAndCheck(t *testing.T, n *fabric.Network, rec *subnet.Recovery) {
	t.Helper()
	n.StopGeneration()
	deadline := n.Now() + 1<<26
	n.RunWhile(func() bool {
		return (n.QueuedPackets() > 0 || rec.PendingReadmits() > 0) && n.Now() < deadline
	})
	if q := n.QueuedPackets(); q != 0 {
		t.Fatalf("%d packets stuck after drain", q)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// forEachModel runs body as one subtest per switch model: recovery
// repairs the shared input buffers and request index, whatever rule
// schedules them.
func forEachModel(t *testing.T, body func(t *testing.T, model fabric.SwitchModel)) {
	for _, model := range fabric.AllModels {
		model := model
		t.Run(model.String(), func(t *testing.T) { body(t, model) })
	}
}

// pathLink returns an inter-switch link on some tracked flow's path
// (the failure that displaces the most traffic).
func pathLink(t *testing.T, n *fabric.Network, flows []*fabric.Flow) (sw, port int) {
	t.Helper()
	for _, f := range flows {
		path, err := n.Routes.PathSwitches(int(f.Src), int(f.Dst))
		if err != nil {
			t.Fatal(err)
		}
		if len(path) >= 2 {
			return path[0], n.Routes.NextPort(path[0], int(f.Dst))
		}
	}
	t.Fatal("no multi-switch flow path")
	return -1, -1
}

// TestRecoveryRefusesShards: recovery repairs one engine's state in
// place, so a multi-shard network refuses it and names its shard count.
func TestRecoveryRefusesShards(t *testing.T) {
	cfg := fabric.DefaultConfig(8, 256, 1)
	cfg.FailoverEscape = true
	cfg.Shards = 2
	topo, err := topology.Generate(cfg.Switches, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	n, err := fabric.NewWithTopology(cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := subnet.NewManager(n.Topo).EnableRecovery(n); err == nil || !strings.Contains(err.Error(), "has 2") {
		t.Errorf("EnableRecovery on 2 shards: err = %v, want a refusal naming the shard count", err)
	}
}

func TestRecoveryLinkFailure(t *testing.T) {
	forEachModel(t, func(t *testing.T, model fabric.SwitchModel) {
		n, m, rec, flows := buildFailoverNet(t, model, 8, 1)
		s, p := pathLink(t, n, flows)
		err := rec.ApplySchedule(faults.Schedule{
			{Kind: faults.FailLink, Switch: s, Port: p, At: 100_000},
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		runRecovery(t, n, m, rec, 400_000)
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
		c := n.ControlCounters()
		if c.RepairsStarted == 0 || c.RepairsStarted != c.RepairsCompleted {
			t.Fatalf("repairs started %d completed %d", c.RepairsStarted, c.RepairsCompleted)
		}
		deg := rec.Degraded()
		if deg == nil {
			t.Fatal("no degraded topology recorded")
		}
		if deg.Peer(s, p).Switch >= 0 {
			t.Fatalf("dead link %d:%d still present in degraded topology", s, p)
		}
		// The active tables must still carry the CDG proof over the
		// degraded topology.
		if _, err := cdg.VerifyPartial(deg, n.Routes); err != nil {
			t.Fatalf("active routes lost their acyclicity proof: %v", err)
		}
		if c.RepairTime == nil || c.RepairTime.N == 0 {
			t.Fatal("no time-to-repair observation")
		}
		drainAndCheck(t, n, rec)
	})
}

func TestRecoverySwitchCrash(t *testing.T) {
	forEachModel(t, func(t *testing.T, model fabric.SwitchModel) {
		n, m, rec, flows := buildFailoverNet(t, model, 8, 3)
		victim := int(flows[0].Dst)
		sw, _ := n.Topo.HostSwitch(victim)
		err := rec.ApplySchedule(faults.Schedule{
			{Kind: faults.FailSwitch, Switch: sw, At: 100_000},
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		runRecovery(t, n, m, rec, 500_000)
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
		c := n.ControlCounters()
		if c.RepairsCompleted == 0 {
			t.Fatal("switch crash never repaired")
		}
		if !rec.HostDead(victim) {
			t.Fatalf("host %d on crashed switch %d not classified dead", victim, sw)
		}
		if !flows[0].Stopped() {
			t.Fatal("flow to a dead host kept generating")
		}
		if c.PacketsLost == 0 {
			t.Fatal("a crashed host-bearing switch lost no packets — accounting hole")
		}
		if n.LostPackets() != c.PacketsLost {
			t.Fatalf("shard lost %d != counter %d", n.LostPackets(), c.PacketsLost)
		}
		if _, err := cdg.VerifyPartial(rec.Degraded(), n.Routes); err != nil {
			t.Fatalf("active routes lost their acyclicity proof: %v", err)
		}
		drainAndCheck(t, n, rec)
	})
}

func TestRecoveryRevival(t *testing.T) {
	forEachModel(t, func(t *testing.T, model fabric.SwitchModel) {
		n, m, rec, flows := buildFailoverNet(t, model, 8, 5)
		s, p := pathLink(t, n, flows)
		baseLinks := len(n.Topo.Links())
		err := rec.ApplySchedule(faults.Schedule{
			{Kind: faults.FailLink, Switch: s, Port: p, At: 100_000, Revive: 300_000},
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		if got := runRecovery(t, n, m, rec, 600_000); got != 2 {
			t.Fatalf("want 2 activations (failure + revival), got %d", got)
		}
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
		if got := len(rec.Degraded().Links()); got != baseLinks {
			t.Fatalf("revival restored %d links, want %d", got, baseLinks)
		}
		// The restored fabric must still deliver: every surviving flow
		// makes progress after the revival activation.
		before := make([]int64, len(flows))
		for i, f := range flows {
			before[i] = f.DelPkts()
		}
		n.Run(800_000)
		for i, f := range flows {
			if f.Stopped() {
				t.Fatalf("flow %d still stopped after revival", i)
			}
			if f.DelPkts() == before[i] {
				t.Fatalf("flow %d delivered nothing after revival", i)
			}
		}
		drainAndCheck(t, n, rec)
	})
}

// TestRecoveryChargesDegradedHops: the in-band programmer charges each
// SMP over the manager's view, so after a repair a switch the failure
// moved away from the manager is charged its distance in the degraded
// fabric.  On the k=4 fat-tree, failing home switch 0's link to switch
// 8 moves switch 8 two hops away.
func TestRecoveryChargesDegradedHops(t *testing.T) {
	topo, err := topology.Spec{Class: topology.FatTree, K: 4}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := fabric.DefaultConfig(topo.NumSwitches, 256, 1)
	cfg.FailoverEscape = true
	n, err := fabric.NewWithTopology(cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	m := subnet.NewManager(n.Topo)
	m.Routes = n.Routes
	prog := subnet.NewInbandProgrammer(n.Ctrl, m)
	rec, err := m.EnableRecovery(n)
	if err != nil {
		t.Fatal(err)
	}
	const sw, port, far = 0, 2, 8
	if got := topo.Peer(sw, port).Switch; got != far || m.HomeSwitch != sw {
		t.Fatalf("switch %d port %d leads to switch %d, home is %d", sw, port, got, m.HomeSwitch)
	}
	if err := rec.ApplySchedule(faults.Schedule{{Kind: faults.FailLink, Switch: sw, Port: port, At: 10_000}}); err != nil {
		t.Fatal(err)
	}
	n.Start()
	if got := runRecovery(t, n, m, rec, 50_000); got != 1 {
		t.Fatalf("%d activations, want 1", got)
	}
	depth := rec.Degraded().Distances(sw)[far]
	if depth == topo.Distances(sw)[far] {
		t.Fatalf("the failure left switch %d at depth %d", far, depth)
	}
	for p := 0; p < topo.Ports(); p++ {
		if got := prog.Hops(admission.SwitchPortID(far, p)); got != 1+depth {
			t.Errorf("port %d:%d charged %d hops, want %d", far, p, got, 1+depth)
		}
	}
}

// TestHeadIndexAcrossFailover replays the link-failure, switch-crash
// and revival schedules above one event at a time, under every switch
// model, and audits the index the instant each activation completes —
// after the route swap, the drain, the sweep and the re-stamping of
// every buffered packet's output, before any scheduling pass runs on
// the rebuilt index — and against the reference scans from then on.
// The WRR rows keep their schedule's name; the input-queued rows carry
// the model's.
func TestHeadIndexAcrossFailover(t *testing.T) {
	cases := []struct {
		name        string
		seed        int64
		schedule    func(t *testing.T, n *fabric.Network, flows []*fabric.Flow) faults.Schedule
		activations int64
	}{
		{"link-failure", 1, func(t *testing.T, n *fabric.Network, flows []*fabric.Flow) faults.Schedule {
			s, p := pathLink(t, n, flows)
			return faults.Schedule{{Kind: faults.FailLink, Switch: s, Port: p, At: 100_000}}
		}, 1},
		{"switch-crash", 3, func(t *testing.T, n *fabric.Network, flows []*fabric.Flow) faults.Schedule {
			sw, _ := n.Topo.HostSwitch(int(flows[0].Dst))
			return faults.Schedule{{Kind: faults.FailSwitch, Switch: sw, At: 100_000}}
		}, 1},
		{"revival", 5, func(t *testing.T, n *fabric.Network, flows []*fabric.Flow) faults.Schedule {
			s, p := pathLink(t, n, flows)
			return faults.Schedule{{Kind: faults.FailLink, Switch: s, Port: p, At: 100_000, Revive: 300_000}}
		}, 2},
	}
	for _, model := range fabric.AllModels {
		for _, tc := range cases {
			model, tc := model, tc
			name := tc.name
			if model != fabric.ModelWRR {
				name = model.String() + "/" + name
			}
			t.Run(name, func(t *testing.T) {
				n, _, rec, flows := buildFailoverNet(t, model, 8, tc.seed)
				for _, be := range traffic.BestEffortBackground(n.Topo.NumHosts(), 800, tc.seed) {
					n.AddBestEffort(be)
				}
				if err := rec.ApplySchedule(tc.schedule(t, n, flows)); err != nil {
					t.Fatal(err)
				}
				compare, compared := fabric.IndexDiff(t, n)
				n.Start()
				seen, compareFor := int64(0), 0
				for n.Now() < 600_000 && n.Engine.Step() {
					if done := n.ControlCounters().RepairsCompleted; done != seen {
						seen = done
						if err := n.CheckInvariants(); err != nil {
							t.Fatalf("right after activation %d: %v", done, err)
						}
						compareFor = 2000
					}
					if compareFor > 0 {
						compareFor--
						compare()
					}
				}
				if err := rec.Err(); err != nil {
					t.Fatal(err)
				}
				if seen != tc.activations {
					t.Fatalf("%d activations, want %d", seen, tc.activations)
				}
				if !compared() {
					t.Fatal("no candidates compared after the activation")
				}
				// Let the packets still on a wire land before the drain check
				// (it only waits for queues to empty).
				n.StopGeneration()
				n.Run(n.Now() + 100_000)
				drainAndCheck(t, n, rec)
			})
		}
	}
}
