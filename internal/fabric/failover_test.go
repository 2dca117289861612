package fabric

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/routing/cdg"
	"repro/internal/sl"
	"repro/internal/traffic"
)

// buildFailoverNet creates a small irregular network of the given switch
// model with the escape entries and recovery subsystem enabled, plus a
// handful of tracked QoS connections spanning the fabric.
func buildFailoverNet(t *testing.T, model SwitchModel, switches int, seed int64) (*Network, *Recovery, []*Flow) {
	t.Helper()
	cfg := DefaultConfig(switches, 256, seed)
	cfg.FailoverEscape = true
	cfg.SwitchModel = model
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := n.EnableRecovery(DefaultRecoveryConfig())
	if err != nil {
		t.Fatal(err)
	}
	hosts := n.Topo.NumHosts()
	var flows []*Flow
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
	return n, rec, flows
}

// drainAndCheck stops generation, drains the fabric and verifies
// packet conservation including lost packets (injected == delivered +
// lost once nothing is queued; a packet dropped at a full source queue
// was never injected) and every fabric invariant (CheckInvariants).
func drainAndCheck(t *testing.T, n *Network, rec *Recovery) {
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
func forEachModel(t *testing.T, body func(t *testing.T, model SwitchModel)) {
	for _, model := range allModels {
		model := model
		t.Run(model.String(), func(t *testing.T) { body(t, model) })
	}
}

// pathLink returns an inter-switch link on some tracked flow's path
// (the failure that displaces the most traffic).
func pathLink(t *testing.T, n *Network, flows []*Flow) (sw, port int) {
	t.Helper()
	for _, f := range flows {
		path, err := n.Routes.PathSwitches(f.Src, f.Dst)
		if err != nil {
			t.Fatal(err)
		}
		if len(path) >= 2 {
			return path[0], n.Routes.NextPort(path[0], f.Dst)
		}
	}
	t.Fatal("no multi-switch flow path")
	return -1, -1
}

// TestRecoveryRefusesShards: recovery repairs one engine's state in
// place, so a multi-shard network refuses it and names its shard count.
func TestRecoveryRefusesShards(t *testing.T) {
	cfg := DefaultConfig(8, 256, 1)
	cfg.FailoverEscape = true
	cfg.Shards = 2
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.EnableRecovery(DefaultRecoveryConfig()); err == nil || !strings.Contains(err.Error(), "has 2") {
		t.Errorf("EnableRecovery on 2 shards: err = %v, want a refusal naming the shard count", err)
	}
}

func TestRecoveryLinkFailure(t *testing.T) {
	forEachModel(t, func(t *testing.T, model SwitchModel) {
		n, rec, flows := buildFailoverNet(t, model, 8, 1)
		s, p := pathLink(t, n, flows)
		err := rec.ApplySchedule(faults.Schedule{
			{Kind: faults.FailLink, Switch: s, Port: p, At: 100_000},
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		n.Run(400_000)
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
		c := rec.Counters()
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
	forEachModel(t, func(t *testing.T, model SwitchModel) {
		n, rec, flows := buildFailoverNet(t, model, 8, 3)
		victim := flows[0].Dst
		sw, _ := n.Topo.HostSwitch(victim)
		err := rec.ApplySchedule(faults.Schedule{
			{Kind: faults.FailSwitch, Switch: sw, At: 100_000},
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		n.Run(500_000)
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
		c := rec.Counters()
		if c.RepairsCompleted == 0 {
			t.Fatal("switch crash never repaired")
		}
		if !rec.HostDead(victim) {
			t.Fatalf("host %d on crashed switch %d not classified dead", victim, sw)
		}
		if !flows[0].stopped {
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
	forEachModel(t, func(t *testing.T, model SwitchModel) {
		n, rec, flows := buildFailoverNet(t, model, 8, 5)
		s, p := pathLink(t, n, flows)
		baseLinks := len(n.Topo.Links())
		err := rec.ApplySchedule(faults.Schedule{
			{Kind: faults.FailLink, Switch: s, Port: p, At: 100_000, Revive: 300_000},
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		n.Run(600_000)
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
		c := rec.Counters()
		if c.RepairsCompleted != 2 {
			t.Fatalf("want 2 activations (failure + revival), got %d", c.RepairsCompleted)
		}
		if got := len(rec.Degraded().Links()); got != baseLinks {
			t.Fatalf("revival restored %d links, want %d", got, baseLinks)
		}
		// The restored fabric must still deliver: every surviving flow
		// makes progress after the revival activation.
		before := make([]int64, len(flows))
		for i, f := range flows {
			before[i] = f.delPkts
		}
		n.Run(800_000)
		for i, f := range flows {
			if f.stopped {
				t.Fatalf("flow %d still stopped after revival", i)
			}
			if f.delPkts == before[i] {
				t.Fatalf("flow %d delivered nothing after revival", i)
			}
		}
		drainAndCheck(t, n, rec)
	})
}
