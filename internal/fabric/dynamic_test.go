package fabric

import (
	"testing"

	"repro/internal/arbtable"
	"repro/internal/sl"
	"repro/internal/traffic"
)

// TestMidRunAdmission: the arbitration tables can be extended while
// traffic flows — the arbiters re-read weights on every visit, so a
// connection admitted mid-run gets its guarantees immediately.
func TestMidRunAdmission(t *testing.T) {
	n := buildNet(t, 2, 256, 21)
	early := admitFlow(t, n, 0, 7, 2, 4)
	n.StartMeasurement()
	n.Start()
	n.Engine.Run(10 * early.IAT)

	// Admit a second connection while the fabric is live.
	conn, err := n.Adm.Admit(traffic.Request{Src: 1, Dst: 6, Level: sl.DefaultLevels[0], Mbps: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	late := n.AddConnection(conn)
	n.StartFlow(late)

	n.Engine.Run(n.Engine.Now() + 30*late.IAT)
	if late.Delivered.Packets == 0 {
		t.Fatal("mid-run connection delivered nothing")
	}
	if pct := late.Delay.PercentMeetingDeadline(); pct != 100 {
		t.Errorf("mid-run connection met deadline only %.1f%%", pct)
	}
	if pct := early.Delay.PercentMeetingDeadline(); pct != 100 {
		t.Errorf("pre-existing connection disturbed: %.1f%%", pct)
	}
	if err := n.CheckBuffers(); err != nil {
		t.Error(err)
	}
}

// TestBufferInvariantsUnderLoad drives a loaded fabric and verifies the
// credit accounting at several points in time.
func TestBufferInvariantsUnderLoad(t *testing.T) {
	n := buildNet(t, 4, 256, 22)
	for i := 0; i < 8; i++ {
		admitFlow(t, n, i, i+8, 2+i%2, 4) // SLs 2 and 3 accept 4 Mbps
	}
	for _, be := range traffic.BestEffortBackground(n.Topo.NumHosts(), 300, 22) {
		n.AddBestEffort(be)
	}
	n.Start()
	for step := 0; step < 10; step++ {
		n.Engine.Run(n.Engine.Now() + 300_000)
		if err := n.CheckBuffers(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestManagementTrafficPreempts: VL 15 subnet-management packets get
// through promptly even when the QoS load saturates the same links,
// and light management load does not break data deadlines.
func TestManagementTrafficPreempts(t *testing.T) {
	n := buildNet(t, 2, 256, 23)
	var qos []*Flow
	for i := 0; i < 4; i++ {
		qos = append(qos, admitFlow(t, n, i, 4+i, 5, 60)) // heavy SL5 load
	}
	mgmt := n.addManagement(0, 7, 2)
	n.StartMeasurement()
	n.Start()
	n.Engine.Run(40 * mgmt.IAT)

	if mgmt.Delivered.Packets == 0 {
		t.Fatal("management traffic starved")
	}
	// Management packets traverse a lightly-hopped path preemptively:
	// their delay should be a few packet times, far below a data VL's
	// table-cycle bound.
	for _, f := range qos {
		if f.Delay.Total() == 0 {
			t.Fatal("QoS flow starved by management traffic")
		}
		if pct := f.Delay.PercentMeetingDeadline(); pct != 100 {
			t.Errorf("QoS deadline met only %.1f%% with management traffic", pct)
		}
	}
	if err := n.CheckBuffers(); err != nil {
		t.Error(err)
	}
}

// TestMidRunRelease: a connection released while the fabric runs
// drains its in-flight packets before its table entries are freed, and
// surviving connections keep their guarantees.
func TestMidRunRelease(t *testing.T) {
	n := buildNet(t, 2, 256, 24)
	keep := admitFlow(t, n, 0, 7, 2, 4)
	goner, err := n.Adm.Admit(traffic.Request{Src: 1, Dst: 6, Level: sl.DefaultLevels[5], Mbps: 40})
	if err != nil {
		t.Fatal(err)
	}
	gonerFlow := n.AddConnection(goner)

	n.StartMeasurement()
	n.Start()
	n.Engine.Run(10 * keep.IAT)
	before := n.Adm.Live()

	released := false
	n.ReleaseConnection(goner, gonerFlow, func() { released = true })
	n.Engine.Run(n.Engine.Now() + 20*keep.IAT)

	if !released {
		t.Fatal("release never completed")
	}
	if n.Adm.Live() != before-1 {
		t.Errorf("live connections = %d, want %d", n.Adm.Live(), before-1)
	}
	// The released VL's table weight is gone from the source host.
	table := n.Adm.Ports().Host[1].Allocator().Table()
	if table.High != [arbtable.TableSize]arbtable.Entry{} {
		t.Errorf("host 1 table still holds weight: %v", table)
	}
	if pct := keep.Delay.PercentMeetingDeadline(); pct != 100 {
		t.Errorf("surviving connection met deadline only %.1f%%", pct)
	}
	if err := n.Adm.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := n.CheckBuffers(); err != nil {
		t.Error(err)
	}
}

// TestVBRPacingPreservesMeanRate: an on/off VBR flow delivers the same
// long-run packet count as a CBR flow of the same mean bandwidth.
func TestVBRPacingPreservesMeanRate(t *testing.T) {
	n := buildNet(t, 2, 256, 25)
	conn, err := n.Adm.Admit(traffic.Request{Src: 0, Dst: 7, Level: sl.DefaultLevels[5], Mbps: 20})
	if err != nil {
		t.Fatal(err)
	}
	vbr := n.AddVBRConnection(conn, 4, 8)
	cbr := admitFlow(t, n, 1, 6, 5, 20)
	n.Start()
	n.Engine.Run(5 * cbr.IAT)
	n.StartMeasurement()
	n.Engine.Run(n.Engine.Now() + 400*cbr.IAT)

	v, c := float64(vbr.Delivered.Packets), float64(cbr.Delivered.Packets)
	if c == 0 || v == 0 {
		t.Fatalf("deliveries: vbr=%v cbr=%v", v, c)
	}
	if v < c*0.93 || v > c*1.07 {
		t.Errorf("VBR delivered %v packets vs CBR %v; mean rate not preserved", v, c)
	}
	if len(n.Flows()) != 2 {
		t.Errorf("Flows() = %d, want 2", len(n.Flows()))
	}
}

// TestVBRDegenerateParameters: peak factor <= 1 or tiny bursts fall
// back to plain CBR.
func TestVBRDegenerateParameters(t *testing.T) {
	n := buildNet(t, 2, 256, 26)
	conn, err := n.Adm.Admit(traffic.Request{Src: 0, Dst: 7, Level: sl.DefaultLevels[8], Mbps: 10})
	if err != nil {
		t.Fatal(err)
	}
	f := n.AddVBRConnection(conn, 1, 1)
	n.StartMeasurement()
	n.Start()
	n.Engine.Run(5 * f.IAT)
	if f.Delivered.Packets == 0 {
		t.Error("degenerate VBR flow delivered nothing")
	}
}

// TestTrafficSurvivesLinkFailure is the end-to-end failover story: a
// loaded fabric loses a link; the surviving topology is rebuilt (as
// the subnet manager would reprogram it), connections are re-admitted,
// and traffic on the degraded fabric still meets every deadline.
func TestTrafficSurvivesLinkFailure(t *testing.T) {
	cfg := DefaultConfig(8, 256, 27)
	before, err := newIrregular(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Reserve a handful of connections and remember the requests.
	var reqs []traffic.Request
	for i := 0; i < 10; i++ {
		req := traffic.Request{Src: i, Dst: i + 16, Level: sl.DefaultLevels[2+i%2], Mbps: 3}
		if _, err := before.Adm.Admit(req); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}

	// Fail the first non-cut link and rebuild.
	degraded := before.Topo.Clone()
	failed := false
	for _, l := range degraded.Links() {
		trial := degraded.Clone()
		if err := trial.RemoveLink(l.A.Switch, l.A.Port); err != nil {
			continue
		}
		if trial.Connected() {
			degraded = trial
			failed = true
			break
		}
	}
	if !failed {
		t.Skip("no non-cut link on this topology")
	}

	after, err := NewWithTopology(cfg, degraded)
	if err != nil {
		t.Fatal(err)
	}
	var flows []*Flow
	for _, req := range reqs {
		conn, err := after.Adm.Admit(req)
		if err != nil {
			continue // lost to the failure
		}
		flows = append(flows, after.AddConnection(conn))
	}
	if len(flows) < len(reqs)/2 {
		t.Fatalf("only %d of %d connections re-admitted", len(flows), len(reqs))
	}

	after.StartMeasurement()
	after.Start()
	after.Engine.Run(30 * flows[0].IAT)
	for i, f := range flows {
		if f.Delay.Total() == 0 {
			t.Errorf("flow %d starved on the degraded fabric", i)
			continue
		}
		if pct := f.Delay.PercentMeetingDeadline(); pct != 100 {
			t.Errorf("flow %d met deadline only %.1f%% after failover", i, pct)
		}
	}
}

// TestStartMeasurementResetsInPlace: opening a measurement window
// empties every flow's statistics without replacing the Delay and
// Jitter objects (a caller may hold them) and without allocating.
func TestStartMeasurementResetsInPlace(t *testing.T) {
	n := buildNet(t, 2, 256, 23)
	f := admitFlow(t, n, 0, 7, 2, 4)
	n.StartMeasurement()
	n.Start()
	n.Engine.Run(20 * f.IAT)
	if f.Delay.Total() == 0 || f.Jitter.Total() == 0 {
		t.Fatal("warm-up recorded nothing")
	}
	delay, jitter := f.Delay, f.Jitter
	if allocs := testing.AllocsPerRun(10, n.StartMeasurement); allocs != 0 {
		t.Errorf("StartMeasurement allocates %.0f objects, want 0", allocs)
	}
	if f.Delay != delay || f.Jitter != jitter {
		t.Error("StartMeasurement replaced the flow's statistics objects")
	}
	if f.Delay.Total() != 0 || f.Delay.MaxRatio() != 0 || f.Jitter.Total() != 0 || f.Delivered.Packets != 0 {
		t.Errorf("statistics survive the reset: delay %d (max %g), jitter %d, delivered %d",
			f.Delay.Total(), f.Delay.MaxRatio(), f.Jitter.Total(), f.Delivered.Packets)
	}
	n.Engine.Run(n.Engine.Now() + 20*f.IAT)
	if f.Delay.Total() == 0 || f.Delay.PercentMeetingDeadline() != 100 {
		t.Errorf("after the reset: %d packets, %.1f%% on time", f.Delay.Total(), f.Delay.PercentMeetingDeadline())
	}
}
