// Allocation-budget gates for the data-plane hot paths.  These are the
// CI guards behind the zero-alloc contract of the typed-event engine:
// with observability disabled (the default), an arbitration pick and a
// full per-hop packet forwarding step must not allocate.  ci.sh runs
// them explicitly; a regression here fails the build, not just a
// benchmark report.
package repro_test

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestAllocBudgetArbiterPick gates the output-port scheduler: picking
// from a loaded table allocates nothing.
func TestAllocBudgetArbiterPick(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets hold only without race instrumentation")
	}
	arb, ready := benchArbiter(t)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, ok := arb.Pick(ready); !ok {
			t.Fatal("nothing picked")
		}
	})
	if allocs != 0 {
		t.Errorf("arbiter pick allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestAllocBudgetPerHopForwarding gates the full steady-state packet
// path with metrics disabled: generating, arbitrating, forwarding
// through the crossbar and delivering one packet — every event the
// fabric schedules — must run allocation-free once the packet and
// event pools are warm.
func TestAllocBudgetPerHopForwarding(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets hold only without race instrumentation")
	}
	net, err := fabric.New(fabric.DefaultConfig(2, 256, 41))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Adm.Admit(traffic.Request{Src: 0, Dst: 7, Level: sl.DefaultLevels[9], Mbps: 64})
	if err != nil {
		t.Fatal(err)
	}
	net.AddConnection(conn)
	net.Start()
	// Warm-up: queues, pools and the event heap reach steady-state
	// capacity.
	net.Engine.Run(1 << 22)
	_, delivered, _ := net.Totals()
	target := delivered
	cond := func() bool {
		_, d, _ := net.Totals()
		return d < target
	}
	allocs := testing.AllocsPerRun(200, func() {
		target++
		net.Engine.RunWhile(cond)
	})
	if allocs != 0 {
		t.Errorf("per-hop forwarding allocates %.2f allocs/op, want 0", allocs)
	}
	if s := net.StaleArrivals(); s != 0 {
		t.Errorf("StaleArrivals = %d, want 0", s)
	}
}

// TestAllocBudgetVOQForwarding gates the input-queued forwarding path:
// the steady-state packet path through the VOQ crossbar — enqueue into
// the virtual output queue, the scheduling pass (iSLIP matching or the
// MWM oracle), the arbitration-table lane pick, and delivery — must
// also run allocation-free once warm, for both schedulers at the 8-port
// radix and for iSLIP at the full 32-port radix (a three-group
// dragonfly with 17 ports in use per switch; the oracle stops at 16).
func TestAllocBudgetVOQForwarding(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets hold only without race instrumentation")
	}
	radix8 := topology.Spec{Class: topology.Irregular, Switches: 2, Seed: 41}
	radix32 := topology.Spec{Class: topology.Dragonfly, A: 2, P: 15, H: 1}
	for _, tc := range []struct {
		name  string
		model fabric.SwitchModel
		spec  topology.Spec
		ports int
	}{
		{"voq-islip", fabric.ModelVOQISLIP, radix8, 8},
		{"voq-mwm", fabric.ModelVOQMWM, radix8, 8},
		{"voq-islip-radix32", fabric.ModelVOQISLIP, radix32, 32},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			topo, err := tc.spec.Generate()
			if err != nil {
				t.Fatal(err)
			}
			if topo.Ports() != tc.ports {
				t.Fatalf("%s has radix %d, want %d", tc.spec.Label(), topo.Ports(), tc.ports)
			}
			cfg := fabric.DefaultConfig(topo.NumSwitches, 256, 41)
			cfg.SwitchModel = tc.model
			net, err := fabric.NewWithTopology(cfg, topo)
			if err != nil {
				t.Fatal(err)
			}
			// First host to last: across the two switches, or across
			// dragonfly groups.
			conn, err := net.Adm.Admit(traffic.Request{Src: 0, Dst: topo.NumHosts() - 1, Level: sl.DefaultLevels[9], Mbps: 64})
			if err != nil {
				t.Fatal(err)
			}
			net.AddConnection(conn)
			net.Start()
			net.Engine.Run(1 << 22)
			_, delivered, _ := net.Totals()
			target := delivered
			cond := func() bool {
				_, d, _ := net.Totals()
				return d < target
			}
			allocs := testing.AllocsPerRun(200, func() {
				target++
				net.Engine.RunWhile(cond)
			})
			if allocs != 0 {
				t.Errorf("%s forwarding allocates %.2f allocs/op, want 0", tc.name, allocs)
			}
			if s := net.StaleArrivals(); s != 0 {
				t.Errorf("StaleArrivals = %d, want 0", s)
			}
		})
	}
}
