package admission

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func newController(t *testing.T, switches int, seed int64) (*Controller, *topology.Topology) {
	t.Helper()
	topo, err := topology.Generate(switches, seed)
	if err != nil {
		t.Fatal(err)
	}
	routes, err := routing.ComputeFor(topo)
	if err != nil {
		t.Fatal(err)
	}
	ports := NewPorts(topo, arbtable.UnlimitedHigh, nil)
	return NewController(topo, routes, sl.IdentityMapping(), ports), topo
}

func req(src, dst int, level int, mbps float64) traffic.Request {
	return traffic.Request{Src: src, Dst: dst, Level: sl.DefaultLevels[level], Mbps: mbps}
}

func TestAdmitSimple(t *testing.T) {
	c, topo := newController(t, 4, 1)
	conn, err := c.Admit(req(0, topo.NumHosts()-1, 9, 32))
	if err != nil {
		t.Fatal(err)
	}
	if len(conn.hops) < 2 {
		t.Errorf("hops = %d, want >= 2 (host interface + at least one switch)", len(conn.hops))
	}
	if conn.Deadline != int64(len(conn.hops))*sl.HopDeadlineByteTimes(64, 4096+sl.HeaderBytes) {
		t.Errorf("deadline = %d (default PacketWire is the largest MTU)", conn.Deadline)
	}
	if conn.Weight != sl.WeightForBandwidth(32) {
		t.Errorf("weight = %d", conn.Weight)
	}
	if c.Live() != 1 {
		t.Errorf("live = %d, want 1", c.Live())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAdmitWritesHostTable(t *testing.T) {
	c, _ := newController(t, 2, 2)
	conn, err := c.Admit(req(0, 7, 0, 0.8)) // SL0, distance 2
	if err != nil {
		t.Fatal(err)
	}
	table := c.Ports().Host[0].Allocator().Table()
	if gap := table.MaxGap(0); gap != 2 {
		t.Errorf("host table VL0 gap = %d, want 2", gap)
	}
	_ = conn
}

func TestAdmitSlotBoundForBigConnections(t *testing.T) {
	c, _ := newController(t, 2, 3)
	// Each SL9 connection at 64 Mbps needs weight 523 > 2*255, so it
	// occupies 4 table slots and cannot share a sequence: the 64-slot
	// table caps admissions at 16, before the weight budget (24) bites.
	admitted := 0
	for i := 0; i < 40; i++ {
		if _, err := c.Admit(req(0, 7, 9, 64)); err == nil {
			admitted++
		}
	}
	if admitted != 16 {
		t.Errorf("admitted %d big connections from host 0, want 16 (slot bound)", admitted)
	}
}

func TestAdmitBudgetBoundForSmallConnections(t *testing.T) {
	c, _ := newController(t, 2, 3)
	// SL6 at 1 Mbps: weight 9, 1 slot, sharing up to 28 connections per
	// slot.  The binding constraint is the 80 % weight budget:
	// floor(13056/9) = 1450 connections.
	admitted := 0
	for i := 0; i < 1600; i++ {
		if _, err := c.Admit(req(0, 7, 6, 1)); err == nil {
			admitted++
		}
	}
	want := sl.MaxReservableWeight / sl.WeightForBandwidth(1)
	if admitted != want {
		t.Errorf("admitted %d small connections, want %d (budget bound)", admitted, want)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAdmitRollbackLeavesTablesClean(t *testing.T) {
	c, _ := newController(t, 2, 4)
	// Saturate the source host interface.
	for {
		if _, err := c.Admit(req(0, 7, 9, 64)); err != nil {
			break
		}
	}
	before := c.Ports().Host[0].ReservedWeight()
	switchBefore := map[string]int{}
	for s := range c.Ports().Switch {
		for q, p := range c.Ports().Switch[s] {
			switchBefore[string(rune(s))+":"+string(rune(q))] = p.ReservedWeight()
		}
	}
	// This must fail at hop 1 and change nothing anywhere.
	if _, err := c.Admit(req(0, 7, 9, 64)); err == nil {
		t.Fatal("over-budget admission succeeded")
	}
	if got := c.Ports().Host[0].ReservedWeight(); got != before {
		t.Errorf("host reservation changed %d -> %d on failed admission", before, got)
	}
	for s := range c.Ports().Switch {
		for q, p := range c.Ports().Switch[s] {
			if p.ReservedWeight() != switchBefore[string(rune(s))+":"+string(rune(q))] {
				t.Errorf("switch %d port %d reservation changed on failed admission", s, q)
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAdmitMidPathRollback(t *testing.T) {
	c, _ := newController(t, 2, 5)
	// Fill a downstream switch port via a different source so that a
	// later admission fails mid-path.
	// Hosts 0..3 on switch 0; hosts 4..7 on switch 1.
	for {
		if _, err := c.Admit(req(1, 7, 9, 64)); err != nil {
			break
		}
	}
	// Host 0 -> host 7 shares the switch path; its own interface is
	// empty, so failure happens at a later hop.
	before := c.Ports().Host[0].ReservedWeight()
	if before != 0 {
		t.Fatalf("host 0 unexpectedly loaded: %d", before)
	}
	_, err := c.Admit(req(0, 7, 9, 64))
	if err == nil {
		t.Skip("path had residual capacity; scenario not triggered on this topology")
	}
	if !strings.Contains(err.Error(), "hop") {
		t.Errorf("error %q does not identify the failing hop", err)
	}
	if got := c.Ports().Host[0].ReservedWeight(); got != 0 {
		t.Errorf("host 0 reservation leaked: %d", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRelease(t *testing.T) {
	c, _ := newController(t, 4, 6)
	conn, err := c.Admit(req(0, 15, 5, 40))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release(conn); err != nil {
		t.Fatal(err)
	}
	if c.Live() != 0 {
		t.Errorf("live = %d after release", c.Live())
	}
	if w := c.Ports().Host[0].ReservedWeight(); w != 0 {
		t.Errorf("host reservation %d after release", w)
	}
	if err := c.Release(conn); err == nil {
		t.Error("double release succeeded")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestReleaseStale releases connections the ledger no longer holds: a
// double release whose ledger slot another connection has since taken,
// one whose slot is past the ledger's end, and a connection of another
// controller.  Each must fail as "not live" and leave every table, the
// ledger and the audit as they were.
func TestReleaseStale(t *testing.T) {
	c, _ := newController(t, 4, 6)
	var conns []*Conn
	for _, dst := range []int{15, 14, 13} {
		conn, err := c.Admit(req(0, dst, 5, 40))
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
	}
	other, _ := newController(t, 4, 6)
	foreign, err := other.Admit(req(0, 15, 5, 40))
	if err != nil {
		t.Fatal(err)
	}
	tables := func() (out []portSnapshot) {
		c.Ports().Each(func(_ PortID, pt *core.PortTable) { out = append(out, snap(pt)) })
		return out
	}
	stale := func(what string, conn *Conn) {
		t.Helper()
		before, live := tables(), c.Live()
		if err := c.Release(conn); err == nil || !strings.Contains(err.Error(), "not live") {
			t.Fatalf("%s: Release = %v, want a \"not live\" error", what, err)
		}
		if !reflect.DeepEqual(tables(), before) {
			t.Errorf("%s changed a table", what)
		}
		if c.Live() != live {
			t.Errorf("%s: %d connections live, was %d", what, c.Live(), live)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}
	// The first release moves the last connection into slot 0.
	if err := c.Release(conns[0]); err != nil {
		t.Fatal(err)
	}
	stale("double release over a reused slot", conns[0])
	if err := c.Release(conns[2]); err != nil {
		t.Fatal(err)
	}
	stale("double release past the ledger's end", conns[2])
	stale("connection of another controller", foreign)
	if err := c.Release(conns[1]); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConverged(); err != nil {
		t.Error(err)
	}
}

func TestSharingAcrossConnections(t *testing.T) {
	c, _ := newController(t, 2, 7)
	// Two same-SL connections from the same host share table slots.
	c1, err := c.Admit(req(0, 6, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	freeAfterFirst := c.Ports().Host[0].Allocator().FreeSlots()
	c2, err := c.Admit(req(0, 7, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Ports().Host[0].Allocator().FreeSlots(); got != freeAfterFirst {
		t.Errorf("second same-SL connection consumed extra slots: %d -> %d", freeAfterFirst, got)
	}
	_, _ = c1, c2
}

func TestFillStopsAndReports(t *testing.T) {
	c, topo := newController(t, 4, 8)
	src := traffic.NewSource(sl.DefaultLevels, topo.NumHosts(), 8)
	res := c.Fill(src, math.MaxInt, 30)
	if len(res.Admitted) == 0 {
		t.Fatal("fill admitted nothing")
	}
	if res.Attempts != len(res.Admitted)+res.Rejected {
		t.Errorf("attempts %d != admitted %d + rejected %d", res.Attempts, len(res.Admitted), res.Rejected)
	}
	if res.Rejected < 30 {
		t.Errorf("fill stopped with only %d rejects", res.Rejected)
	}
	// The network must be loaded close to the budget somewhere.
	if c.MeanHostReservation() <= 0 {
		t.Error("zero mean host reservation after fill")
	}
	if c.MeanSwitchPortReservation() <= 0 {
		t.Error("zero mean switch reservation after fill")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestFillLoad: a load factor offers max(1, ceil(load·hosts)) attempts
// from the seed+1 source, the same requests Fill draws from that
// source under the same caps, and loads outside (0, MaxLoadFactor] are
// refused before any request is drawn.
func TestFillLoad(t *testing.T) {
	c, topo := newController(t, 4, 8)
	for _, load := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), MaxLoadFactor * 2} {
		if _, err := c.FillLoad(load, 3, 20); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("load %g: err = %v, want out of range", load, err)
		}
	}
	if c.Live() != 0 {
		t.Fatalf("refused loads admitted %d connections", c.Live())
	}
	res, err := c.FillLoad(0.01, 3, 20)
	if err != nil || res.Attempts != 1 {
		t.Fatalf("load 0.01: %d attempts, err %v; want exactly one attempt", res.Attempts, err)
	}
	want := int(math.Ceil(1.5 * float64(topo.NumHosts())))
	c2, _ := newController(t, 4, 8)
	got, err := c2.FillLoad(1.5, 3, math.MaxInt)
	if err != nil || got.Attempts != want {
		t.Fatalf("load 1.5: %d attempts, err %v; want %d", got.Attempts, err, want)
	}
	c3, _ := newController(t, 4, 8)
	ref := c3.Fill(traffic.NewSource(sl.DefaultLevels, topo.NumHosts(), 4), want, math.MaxInt)
	if len(ref.Admitted) != len(got.Admitted) || ref.Rejected != got.Rejected {
		t.Fatalf("FillLoad admitted %d/%d, Fill from the seed+1 source %d/%d",
			len(got.Admitted), got.Attempts, len(ref.Admitted), ref.Attempts)
	}
	for i := range ref.Admitted {
		if ref.Admitted[i].Req != got.Admitted[i].Req {
			t.Fatalf("connection %d: FillLoad %+v, Fill %+v", i, got.Admitted[i].Req, ref.Admitted[i].Req)
		}
	}
}

// TestCheckInvariantsLedger: a reservation no live connection owns — a
// leaked connection — fails the controller's audit with an error naming
// the port, on a host interface and on a switch port the connection
// itself crosses, and releasing it heals the ledger.
func TestCheckInvariantsLedger(t *testing.T) {
	c, topo := newController(t, 4, 1)
	conn, err := c.Admit(req(0, topo.NumHosts()-1, 9, 32))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	leak, err := c.Ports().Host[2].Reserve(0, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "host 2: reserved weight 3, live connections hold 0") {
		t.Fatalf("leaked reservation: CheckInvariants = %v, want the ledger error naming host 2", err)
	}
	if err := c.Ports().Host[2].Release(leak); err != nil {
		t.Fatal(err)
	}
	sites := conn.Sites()
	last := sites[len(sites)-1] // a switch port
	tb := c.Ports().Switch[last.Switch][last.Port]
	if leak, err = tb.Reserve(1, 8, 3); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%v: reserved weight %d, live connections hold %d", last, conn.Weight+3, conn.Weight)
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("leaked reservation: CheckInvariants = %v, want %q", err, want)
	}
	if err := tb.Release(leak); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(conn); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckConverged: a live connection, or a port whose shadow the data
// plane has not been given, is not converged — unless the port is
// quarantined or dead.
func TestCheckConverged(t *testing.T) {
	c, topo := newController(t, 4, 1)
	conn, err := c.Admit(req(0, topo.NumHosts()-1, 9, 32))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConverged(); err == nil || !strings.Contains(err.Error(), "1 connections still live") {
		t.Fatalf("live connection: CheckConverged = %v", err)
	}
	if err := c.Release(conn); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConverged(); err != nil {
		t.Fatal(err)
	}
	// A shadow change nobody programmed: dirty until the port is excused.
	r, err := c.Ports().Switch[1][0].Reserve(0, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConverged(); err == nil || !strings.Contains(err.Error(), "switch 1 port 0 not converged") {
		t.Fatalf("dirty port: CheckConverged = %v", err)
	}
	port := SwitchPortID(1, 0)
	for _, excuse := range []*func(PortID) bool{&c.Down, &c.DeadHop} {
		*excuse = func(id PortID) bool { return id == port }
		if err := c.CheckConverged(); err != nil {
			t.Errorf("excused port: %v", err)
		}
		*excuse = nil
	}
	if err := c.Ports().Switch[1][0].Release(r); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConverged(); err != nil {
		t.Fatal(err)
	}
}

func TestAdmitInvalidRequest(t *testing.T) {
	c, _ := newController(t, 2, 9)
	if _, err := c.Admit(req(0, 0, 0, 0.7)); err == nil {
		t.Error("self-connection admitted")
	}
}

// TestPortsSizedToRadix: NewPorts builds Topo.Ports() tables per
// switch, not the SwitchPorts array cap, and that is enough — every
// port a forwarding entry, a PathHops hop or a route repaired around a
// lost link or a crashed switch can name has a table.
func TestPortsSizedToRadix(t *testing.T) {
	for _, sp := range []topology.Spec{
		{Class: topology.Irregular, Switches: 8, Seed: 3},
		{Class: topology.FatTree, K: 4},
		{Class: topology.FatTree, K: 8},
		{Class: topology.Dragonfly, A: 3, P: 2, H: 1},
	} {
		sp := sp
		t.Run(sp.Label(), func(t *testing.T) {
			topo, err := sp.Generate()
			if err != nil {
				t.Fatal(err)
			}
			ports := NewPorts(topo, arbtable.UnlimitedHigh, nil)
			for s, row := range ports.Switch {
				if len(row) != topo.Ports() {
					t.Fatalf("switch %d has %d tables, want the radix %d", s, len(row), topo.Ports())
				}
			}
			covered := func(what string, r *routing.Routes) {
				t.Helper()
				for s := 0; s < topo.NumSwitches; s++ {
					for dst := 0; dst < topo.NumHosts(); dst++ {
						if p := r.NextPort(s, dst); p >= len(ports.Switch[s]) {
							t.Fatalf("%s: switch %d forwards host %d to port %d, beyond its %d tables",
								what, s, dst, p, len(ports.Switch[s]))
						}
					}
				}
				for src := 0; src < topo.NumHosts(); src++ {
					for dst := 0; dst < topo.NumHosts(); dst++ {
						hops, err := r.PathHops(src, dst, 0)
						if src == dst || err != nil {
							continue // unroutable after a failure
						}
						for _, h := range hops[1:] {
							if h.Port < 0 || h.Port >= len(ports.Switch[h.Switch]) {
								t.Fatalf("%s: path %d->%d names switch %d port %d, beyond its %d tables",
									what, src, dst, h.Switch, h.Port, len(ports.Switch[h.Switch]))
							}
						}
					}
				}
			}
			whole, err := routing.ComputeFor(topo)
			if err != nil {
				t.Fatal(err)
			}
			covered("whole", whole)

			// Every failure on the small shapes, a spread of sixteen of
			// each on the k=8 fat-tree.
			links := topo.Links()
			for i := 0; i < len(links); i += 1 + len(links)/16 {
				l := links[i]
				degraded := topo.Clone()
				if err := degraded.RemoveLink(l.A.Switch, l.A.Port); err != nil {
					t.Fatal(err)
				}
				repaired, _, err := routing.Repair(degraded)
				if err != nil {
					t.Fatalf("link %d: %v", i, err)
				}
				covered("link lost", repaired)
			}
			for s := 0; s < topo.NumSwitches; s += 1 + topo.NumSwitches/16 {
				degraded := topo.Clone()
				if err := degraded.RemoveSwitch(s); err != nil {
					t.Fatal(err)
				}
				repaired, _, err := routing.Repair(degraded)
				if err != nil {
					t.Fatalf("switch %d: %v", s, err)
				}
				covered("switch lost", repaired)
			}
		})
	}
}
