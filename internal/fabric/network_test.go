package fabric

import (
	"testing"

	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// buildNet creates a small network with the given payload.
func buildNet(t *testing.T, switches, payload int, seed int64) *Network {
	t.Helper()
	n, err := newIrregular(DefaultConfig(switches, payload, seed))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// newIrregular builds a network over the irregular topology of cfg's
// switch count and seed.
func newIrregular(cfg Config) (*Network, error) {
	topo, err := topology.Generate(cfg.Switches, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return NewWithTopology(cfg, topo)
}

// admitFlow admits one QoS connection and attaches its flow.
func admitFlow(t *testing.T, n *Network, src, dst, level int, mbps float64) *Flow {
	t.Helper()
	conn, err := n.Adm.Admit(traffic.Request{
		Src: src, Dst: dst, Level: sl.DefaultLevels[level], Mbps: mbps,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n.AddConnection(conn)
}

func TestSinglePacketDelivery(t *testing.T) {
	n := buildNet(t, 2, 256, 1)
	f := admitFlow(t, n, 0, 7, 9, 32)
	n.StartMeasurement()
	n.Start()
	// One IAT plus slack delivers at least one packet.
	n.Engine.Run(3 * f.IAT)
	if f.Delivered == 0 {
		t.Fatal("no packet delivered")
	}
	inj, del, drop := n.Totals()
	if inj == 0 || del == 0 || drop != 0 {
		t.Errorf("totals: injected=%d delivered=%d dropped=%d", inj, del, drop)
	}
}

func TestDeliveryToCorrectHost(t *testing.T) {
	n := buildNet(t, 4, 256, 2)
	// Three flows to distinct destinations.
	f1 := admitFlow(t, n, 0, 5, 8, 10)
	f2 := admitFlow(t, n, 1, 9, 8, 10)
	f3 := admitFlow(t, n, 2, 13, 8, 10)
	n.StartMeasurement()
	n.Start()
	n.Engine.Run(4 * f1.IAT)
	for i, f := range []*Flow{f1, f2, f3} {
		if f.Delivered == 0 {
			t.Errorf("flow %d delivered nothing", i)
		}
	}
}

func TestConservationAfterDrain(t *testing.T) {
	n := buildNet(t, 4, 256, 3)
	for i := 0; i < 6; i++ {
		admitFlow(t, n, i, i+8, 7, 4)
	}
	n.Start()
	n.Engine.Run(2_000_000)
	n.StopGeneration()
	// Drain: run all remaining events.
	n.Engine.Run(1 << 40)
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if n.QueuedPackets() != 0 {
		t.Errorf("%d packets stuck after drain", n.QueuedPackets())
	}
	inj, del, drop := n.Totals()
	if del != inj {
		t.Errorf("injected %d != delivered %d (drops %d)", inj, del, drop)
	}
}

func TestThroughputMatchesCBRRate(t *testing.T) {
	n := buildNet(t, 2, 256, 4)
	// 32 Mbps CBR, uncontended: delivered bytes over a long window
	// approach payload * window / IAT.
	f := admitFlow(t, n, 0, 7, 9, 32)
	n.Start()
	warm := 10 * f.IAT
	n.Engine.Run(warm)
	n.StartMeasurement()
	window := 400 * f.IAT
	n.Engine.Run(warm + window)
	wantPkts := float64(window) / float64(f.IAT)
	got := float64(f.Delivered)
	if got < wantPkts*0.95 || got > wantPkts*1.05 {
		t.Errorf("delivered %.0f packets, want about %.0f", got, wantPkts)
	}
}

func TestDeadlineMetUncontended(t *testing.T) {
	n := buildNet(t, 2, 256, 5)
	f := admitFlow(t, n, 0, 7, 0, 0.8) // SL0, strictest distance
	n.StartMeasurement()
	n.Start()
	n.Engine.Run(20 * f.IAT)
	if f.Delay.Total() == 0 {
		t.Fatal("no delay samples")
	}
	if pct := f.Delay.PercentMeetingDeadline(); pct != 100 {
		t.Errorf("only %.1f%% met the deadline uncontended", pct)
	}
	// Uncontended delay should be far below the worst-case guarantee.
	if f.Delay.MaxRatio() > 0.2 {
		t.Errorf("uncontended max delay ratio %.3f suspiciously high", f.Delay.MaxRatio())
	}
}

func TestJitterTightUncontended(t *testing.T) {
	n := buildNet(t, 2, 256, 6)
	f := admitFlow(t, n, 0, 7, 3, 2)
	n.Start()
	n.Engine.Run(5 * f.IAT)
	n.StartMeasurement()
	n.Engine.Run(105 * f.IAT)
	j := n.Jitter(f.SL)
	if j.Total() < 50 {
		t.Fatalf("only %d jitter samples", j.Total())
	}
	if pct := j.CentralPercent(); pct < 99 {
		t.Errorf("central jitter %.1f%%, want ~100%% uncontended", pct)
	}
}

func TestBestEffortFlowsDeliver(t *testing.T) {
	n := buildNet(t, 2, 256, 7)
	flows := traffic.BestEffortBackground(n.Topo.NumHosts(), 50, 7)
	var befs []*Flow
	for _, be := range flows {
		befs = append(befs, n.AddBestEffort(be))
	}
	n.StartMeasurement()
	n.Start()
	n.Engine.Run(2_000_000)
	delivered := int64(0)
	for _, f := range befs {
		delivered += f.Delivered
	}
	if delivered == 0 {
		t.Fatal("best-effort traffic starved on an idle network")
	}
}

// TestHighPriorityShieldsQoSFromBestEffort: QoS packets keep their
// deadlines while best-effort floods the same links.
func TestHighPriorityShieldsQoSFromBestEffort(t *testing.T) {
	n := buildNet(t, 2, 256, 8)
	qos := admitFlow(t, n, 0, 7, 2, 4) // SL2, distance 8
	// Saturating best-effort from every host to host 7's switch.
	for h := 0; h < 4; h++ {
		n.AddBestEffort(traffic.BestEffort{Src: h, Dst: 7, SL: sl.BESL, Mbps: 1500})
	}
	n.Start()
	n.Engine.Run(5 * qos.IAT)
	n.StartMeasurement()
	n.Engine.Run(60 * qos.IAT)
	if qos.Delay.Total() == 0 {
		t.Fatal("no QoS deliveries under best-effort load")
	}
	if pct := qos.Delay.PercentMeetingDeadline(); pct != 100 {
		t.Errorf("QoS met deadline only %.1f%% under best-effort flood", pct)
	}
}

func TestUtilizationMetersMove(t *testing.T) {
	n := buildNet(t, 2, 256, 9)
	f := admitFlow(t, n, 0, 7, 9, 64)
	n.StartMeasurement()
	n.Start()
	n.Engine.Run(50 * f.IAT)
	if u := n.MeanHostUtilization(); u <= 0 {
		t.Errorf("host utilization = %g, want > 0", u)
	}
	if u := n.MeanSwitchPortUtilization(); u <= 0 {
		t.Errorf("switch utilization = %g, want > 0", u)
	}
	if n.InjectedBytesPerCyclePerNode() <= 0 || n.DeliveredBytesPerCyclePerNode() <= 0 {
		t.Error("traffic rates not positive")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, int64) {
		n := buildNet(t, 4, 256, 11)
		admitFlow(t, n, 0, 9, 5, 30)
		admitFlow(t, n, 4, 13, 2, 3)
		n.StartMeasurement()
		n.Start()
		n.Engine.Run(1_000_000)
		inj, del, _ := n.Totals()
		return inj, del
	}
	i1, d1 := run()
	i2, d2 := run()
	if i1 != i2 || d1 != d2 {
		t.Errorf("identical configs diverged: (%d,%d) vs (%d,%d)", i1, d1, i2, d2)
	}
}

func TestBestEffortOverloadDropsAtSource(t *testing.T) {
	n := buildNet(t, 2, 256, 12)
	// Grossly oversubscribed best-effort: drops must happen at the
	// source queue, not wedge the fabric.
	f := n.AddBestEffort(traffic.BestEffort{Src: 0, Dst: 7, SL: sl.CHSL, Mbps: 1900})
	g := n.AddBestEffort(traffic.BestEffort{Src: 1, Dst: 7, SL: sl.CHSL, Mbps: 1900})
	n.StartMeasurement()
	n.Start()
	n.Engine.Run(3_000_000)
	if _, _, dropped := n.Totals(); dropped == 0 {
		t.Error("no drops under 2x oversubscription")
	}
	if f.Delivered == 0 || g.Delivered == 0 {
		t.Error("oversubscribed flows starved completely")
	}
}

func TestMisbehavingSourceHurtsOnlyItsVL(t *testing.T) {
	n := buildNet(t, 2, 256, 13)
	// A well-behaved SL3 connection and a misbehaving SL9 connection
	// crossing the same path.
	good := admitFlow(t, n, 0, 7, 3, 2)
	conn, err := n.Adm.Admit(traffic.Request{Src: 1, Dst: 7, Level: sl.DefaultLevels[9], Mbps: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Reserved 20 Mbps but transmits 400 Mbps.
	bad := n.AddMisbehavingConnection(conn, 400)
	n.Start()
	n.Engine.Run(5 * good.IAT)
	n.StartMeasurement()
	n.Engine.Run(60 * good.IAT)
	if good.Delay.Total() == 0 {
		t.Fatal("good flow starved")
	}
	if pct := good.Delay.PercentMeetingDeadline(); pct != 100 {
		t.Errorf("well-behaved flow met deadline only %.1f%% next to a misbehaving VL", pct)
	}
	_ = bad
}

func TestLargePacketConfig(t *testing.T) {
	n := buildNet(t, 2, 2048, 14)
	f := admitFlow(t, n, 0, 7, 9, 64)
	n.StartMeasurement()
	n.Start()
	n.Engine.Run(10 * f.IAT)
	if f.Delivered == 0 {
		t.Fatal("no large packets delivered")
	}
	if f.Wire != 2048+sl.HeaderBytes {
		t.Errorf("wire size = %d", f.Wire)
	}
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig(2, 256, 1)
	if err := good.validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Switches = 1 },
		func(c *Config) { c.PayloadBytes = 0 },
		func(c *Config) { c.PayloadBytes = 5000 },
		func(c *Config) { c.CrossbarSpeedup = 0 },
		func(c *Config) { c.HostQueueCap = 0 },
		func(c *Config) { c.DataVLs = 2 },
		func(c *Config) { c.DataVLs = 16 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig(2, 256, 1)
		mutate(&cfg)
		if _, err := newIrregular(cfg); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}
