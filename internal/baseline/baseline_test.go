package baseline

import (
	"testing"

	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func newLow(t *testing.T) (*LowTables, *topology.Topology) {
	t.Helper()
	topo, err := topology.Generate(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	routes, err := routing.ComputeFor(topo)
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]*core.PortTable, topo.NumHosts())
	for i := range hosts {
		hosts[i] = core.NewPortTable(arbtable.New(arbtable.UnlimitedHigh))
	}
	sw := make([][]*core.PortTable, topo.NumSwitches)
	for s := range sw {
		sw[s] = make([]*core.PortTable, topology.SwitchPorts)
		for p := range sw[s] {
			sw[s][p] = core.NewPortTable(arbtable.New(arbtable.UnlimitedHigh))
		}
	}
	return NewLowTables(routes, hosts, sw), topo
}

func dbReq(src, dst int, mbps float64) traffic.Request {
	return traffic.Request{Src: src, Dst: dst, Level: sl.DefaultLevels[8], Mbps: mbps}
}

func TestAdmitDBWritesLowTable(t *testing.T) {
	l, _ := newLow(t)
	if err := l.AdmitDB(dbReq(0, 7, 12), 8); err != nil {
		t.Fatal(err)
	}
	table := l.ports[0].Allocator().Table()
	found := 0
	for _, e := range table.Low {
		if e.VL == 8 {
			found += int(e.Weight)
		}
	}
	if found != sl.WeightForBandwidth(12) {
		t.Errorf("low-table DB weight = %d, want %d", found, sl.WeightForBandwidth(12))
	}
	// High table untouched.
	if table.High != [arbtable.TableSize]arbtable.Entry{} {
		t.Error("AdmitDB touched the high-priority table")
	}
}

func TestAdmitDBPreservesBaseEntries(t *testing.T) {
	l, _ := newLow(t)
	table := l.ports[0].Allocator().Table()
	table.Low = []arbtable.Entry{{VL: 11, Weight: 4}} // best-effort base
	if err := l.AdmitDB(dbReq(0, 7, 10), 8); err != nil {
		t.Fatal(err)
	}
	if err := l.AdmitDB(dbReq(0, 6, 10), 8); err != nil {
		t.Fatal(err)
	}
	if table.Low[0].VL != 11 || table.Low[0].Weight != 4 {
		t.Errorf("base best-effort entry clobbered: %v", table.Low)
	}
}

func TestAdmitDBChunksLargeWeight(t *testing.T) {
	l, _ := newLow(t)
	// 64 Mbps -> weight 523 -> 3 low entries (255+255+13).
	if err := l.AdmitDB(traffic.Request{Src: 0, Dst: 7, Level: sl.DefaultLevels[9], Mbps: 64}, 9); err != nil {
		t.Fatal(err)
	}
	table := l.ports[0].Allocator().Table()
	var weights []int
	for _, e := range table.Low {
		if e.VL == 9 {
			weights = append(weights, int(e.Weight))
		}
	}
	if len(weights) != 3 || weights[0] != 255 || weights[1] != 255 || weights[2] != 13 {
		t.Errorf("chunked weights = %v, want [255 255 13]", weights)
	}
}

func TestAdmitDBRejectsNonDB(t *testing.T) {
	l, _ := newLow(t)
	req := traffic.Request{Src: 0, Dst: 7, Level: sl.DefaultLevels[0], Mbps: 0.8}
	if err := l.AdmitDB(req, 0); err == nil {
		t.Error("DBTS request accepted by AdmitDB")
	}
}

func TestAdmitDBBudget(t *testing.T) {
	l, _ := newLow(t)
	admitted := 0
	for i := 0; i < 200; i++ {
		if err := l.AdmitDB(dbReq(0, 7, 16), 8); err != nil {
			break
		}
		admitted++
	}
	want := sl.MaxReservableWeight / sl.WeightForBandwidth(16)
	if admitted != want {
		t.Errorf("admitted %d DB connections, want %d (budget bound)", admitted, want)
	}
}

func TestRandomTraceDeterministic(t *testing.T) {
	a := RandomTrace(100, 5)
	b := RandomTrace(100, 5)
	if len(a) != len(b) {
		t.Fatal("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed traces differ")
		}
	}
}

func TestReplayPoliciesBothValid(t *testing.T) {
	ops := RandomTrace(300, 7)
	br := Replay(ops, core.BitReversal)
	nat := Replay(ops, core.NaturalOrder)
	if br.Accepted+br.Rejected != nat.Accepted+nat.Rejected {
		t.Errorf("policies saw different request counts: %+v vs %+v", br, nat)
	}
	if br.Accepted == 0 || nat.Accepted == 0 {
		t.Error("a policy accepted nothing")
	}
	if br.Steps != len(ops) || nat.Steps != len(ops) {
		t.Error("step counts wrong")
	}
}

// TestBitReversalAlwaysServiceable is the paper's theorem as an
// ablation: the bit-reversal policy never falsely rejects and keeps
// the table serviceable after every operation; the naive policy
// violates both on at least some traces.
func TestBitReversalAlwaysServiceable(t *testing.T) {
	natViolates := false
	for seed := int64(0); seed < 20; seed++ {
		ops := RandomTrace(400, seed)
		br := Replay(ops, core.BitReversal)
		if br.FalseRejects != 0 {
			t.Errorf("seed %d: bit-reversal falsely rejected %d requests", seed, br.FalseRejects)
		}
		if br.ServiceabilitySteps != br.Steps {
			t.Errorf("seed %d: bit-reversal unserviceable after %d steps",
				seed, br.Steps-br.ServiceabilitySteps)
		}
		nat := Replay(ops, core.NaturalOrder)
		if nat.FalseRejects > 0 || nat.ServiceabilitySteps < nat.Steps {
			natViolates = true
		}
	}
	if !natViolates {
		t.Error("naive policy never fragmented on 20 traces; ablation has no signal")
	}
}

// TestFillUntilRejectFavorsBitReversal: on pure fill streams the
// paper's policy places at least as many requests before the first
// rejection, on average strictly more.
func TestFillUntilRejectFavorsBitReversal(t *testing.T) {
	sumBR, sumNat := 0, 0
	for seed := int64(0); seed < 50; seed++ {
		sumBR += FillUntilReject(seed, core.BitReversal)
		sumNat += FillUntilReject(seed, core.NaturalOrder)
	}
	if sumBR <= sumNat {
		t.Errorf("bit-reversal filled %d total vs natural %d; expected strictly more", sumBR, sumNat)
	}
}

func TestServiceabilityRatio(t *testing.T) {
	r := TrialResult{Steps: 4, ServiceabilitySteps: 3}
	if got := r.ServiceabilityRatio(); got != 0.75 {
		t.Errorf("ratio = %g, want 0.75", got)
	}
	if (TrialResult{}).ServiceabilityRatio() != 0 {
		t.Error("empty trial ratio != 0")
	}
}
