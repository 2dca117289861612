package fabric

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// This file holds the tests of the WRR switch's scheduling passes as a
// whole: what the fabric delivers and when, pinned to constants, and
// what a forwarded packet costs in events.  (That a pass the kicks leave
// out would have changed nothing is idle_test.go's business.)

// buildWRR creates a WRR network over a generated topology on the given
// number of shards, with the default configuration adjusted by tweak
// (nil keeps it).
func buildWRR(t *testing.T, spec topology.Spec, seed int64, shards int, tweak func(*Config)) *Network {
	t.Helper()
	topo, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(topo.NumSwitches, 256, seed)
	cfg.Shards = shards
	if tweak != nil {
		tweak(&cfg)
	}
	n, err := NewWithTopology(cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// faultWindows attaches a fault schedule that blocks whole switches and
// one host interface while the fabric is loaded: every port of switch 1
// stalls over [30 000, 45 000), host 3's link is down over
// [50 000, 58 000) and every port of switch 2 is down over
// [60 000, 72 000).
func faultWindows(n *Network) {
	inj := faults.New(faults.Config{Seed: 1})
	for p := 0; p < n.Topo.Ports(); p++ {
		inj.AddStall(faults.SwitchPortKey(1, p), 30_000, 45_000)
		inj.AddLinkDown(faults.SwitchPortKey(2, p), 60_000, 72_000)
	}
	inj.AddLinkDown(faults.HostKey(3), 50_000, 58_000)
	n.SetFaults(inj)
}

// wrrDigestCase is one configuration TestWRRDeliveryDigest pins.
type wrrDigestCase struct {
	name   string
	spec   topology.Spec
	seed   int64
	tweak  func(*Config)
	faults bool
	qos    bool // heavyQoS on top of loadDifferential
}

// wrrDigestCases: every routing class at two seeds — the dragonfly's
// two planes shift packets into their escape lane at the pick (the
// HopVL remap) — then one fat-tree each under stall and down fault
// windows, with the multiplexed crossbar at speedup 1, and with
// LimitOfHighPriority 0, where the low table gets a turn after every
// high-table packet.
func wrrDigestCases() []wrrDigestCase {
	specs := []struct {
		name string
		spec topology.Spec
	}{
		{"irregular-8", topology.Spec{Class: topology.Irregular, Switches: 8, Seed: 11}},
		{"fattree-k4", topology.Spec{Class: topology.FatTree, K: 4}},
		{"dragonfly-2-2-1", topology.Spec{Class: topology.Dragonfly, A: 2, P: 2, H: 1}},
	}
	var cases []wrrDigestCase
	for _, tc := range specs {
		for _, seed := range []int64{9, 23} {
			cases = append(cases, wrrDigestCase{name: fmt.Sprintf("%s/seed%d", tc.name, seed), spec: tc.spec, seed: seed})
		}
	}
	fatTree := specs[1].spec
	return append(cases,
		wrrDigestCase{name: "fattree-k4/faults", spec: fatTree, seed: 9, faults: true},
		wrrDigestCase{name: "fattree-k4/speedup1", spec: fatTree, seed: 9,
			tweak: func(cfg *Config) { cfg.CrossbarSpeedup = 1 }},
		wrrDigestCase{name: "fattree-k4/limit0", spec: fatTree, seed: 9, qos: true,
			tweak: func(cfg *Config) { cfg.Limit = 0 }},
	)
}

// wrrDeliveryDigest runs one case loaded with loadDifferential for
// 120 000 byte-times on the given number of shards and returns its
// deliveryDigest.
func wrrDeliveryDigest(t *testing.T, tc wrrDigestCase, shards int) uint64 {
	t.Helper()
	return deliveryDigest(t, wrrDigestNet(t, tc, shards), 120_000)
}

// wrrDigestNet builds and loads the network of one digest case.
func wrrDigestNet(t *testing.T, tc wrrDigestCase, shards int) *Network {
	t.Helper()
	n := buildWRR(t, tc.spec, tc.seed, shards, tc.tweak)
	if n.Parallel() != (shards > 1) {
		t.Fatalf("Parallel() = %v at %d shards", n.Parallel(), shards)
	}
	if tc.faults {
		faultWindows(n)
	}
	loadDifferential(t, n, tc.seed+22)
	if tc.qos {
		heavyQoS(t, n)
	}
	return n
}

// heavyQoS admits four 64 Mbps connections from every host, so that
// high-table lanes stay backlogged beside the best effort.
func heavyQoS(t *testing.T, n *Network) {
	t.Helper()
	hosts := n.Topo.NumHosts()
	admitted := 0
	for k := 1; k <= 4; k++ {
		for h := 0; h < hosts; h++ {
			conn, err := n.Adm.Admit(traffic.Request{
				Src: h, Dst: (h + k*hosts/5 + 1) % hosts, Level: sl.DefaultLevels[9], Mbps: 64,
			})
			if err != nil {
				continue
			}
			n.AddConnection(conn)
			admitted++
		}
	}
	if admitted == 0 {
		t.Fatal("no heavy QoS connection admitted")
	}
}

// wrrPinnedDigests are the digests of wrrDigestCases, in order.
var wrrPinnedDigests = []uint64{
	0xc27d5e51cd2450af, 0x4f1fb2f80d266f24, 0x89afd817bdc6a857,
	0x03eda7ff8402b857, 0xc4849e306f129dcf, 0x57d0b1bcc66f7b4e,
	0xb10814dd5dc4144b, 0xe799c9564b454d4e, 0x5482776d8aa49fbc,
}

// TestWRRDeliveryDigest pins what the WRR fabric delivers and when, on
// one engine: every delivery's flow, injection and delivery
// byte-times, folded per host.  The constants were recorded when the
// scheduling passes moved to the end-of-instant phase, and
// TestPhaseMatchesReferenceExecutor holds a pass at every port after
// every byte-time to them; any change to a pick, a forward or a
// timestamp moves them.
//
// A two-shard parallel run is held to repeatability only, as in
// TestVOQDeliveryDigest: its windows are placed by the pending events.
func TestWRRDeliveryDigest(t *testing.T) {
	cases := wrrDigestCases()
	if len(cases) != len(wrrPinnedDigests) {
		t.Fatalf("%d cases, %d pinned digests", len(cases), len(wrrPinnedDigests))
	}
	for k, tc := range cases {
		tc, want := tc, wrrPinnedDigests[k]
		t.Run(tc.name, func(t *testing.T) {
			if got := wrrDeliveryDigest(t, tc, 1); got != want {
				t.Errorf("digest %#016x, pinned %#016x", got, want)
			}
		})
	}
	t.Run("two-shards-repeat", func(t *testing.T) {
		tc := cases[2] // fattree-k4, seed 9
		a := wrrDeliveryDigest(t, tc, 2)
		if b := wrrDeliveryDigest(t, tc, 2); a != b {
			t.Errorf("two runs of one two-shard configuration digest %#016x and %#016x", a, b)
		}
	})
}

// hopCosts runs the fixed loaded k = 4 fat-tree run the events-per-hop
// gates share under the given switch model — 400 000 byte-times of
// loadDifferential at seed 9 — and returns per switch forward the
// events executed (scheduling passes counted, one each), the passes
// and the evInputFree wake-ups, with the forward count and the
// arbiter's stalls and picks.
func hopCosts(t *testing.T, model SwitchModel) (events, passes, wakes float64, hops int, arb metrics.ArbCounters) {
	t.Helper()
	n := buildVOQ(t, topology.Spec{Class: topology.FatTree, K: 4}, model, 9)
	m := n.EnableMetrics()
	loadDifferential(t, n, 31)
	sh := n.shards[0]
	var passCount int
	sh.eng.SetInstantEnd(func() int {
		k := sh.endInstant()
		passCount += k
		return k
	})
	n.OnForward = func(*Packet, int, int) { hops++ }
	n.Start()
	n.Run(400_000)
	if hops < 20_000 {
		t.Fatalf("only %d forwards", hops)
	}
	per := func(x float64) float64 { return x / float64(hops) }
	events, passes, wakes = per(float64(n.ExecutedEvents())), per(float64(passCount)), per(float64(sh.inputWakes))
	t.Logf("%d events for %d forwards (%.3f per hop), %.3f passes and %.4f evInputFree per hop, %d stalls, %d picks",
		n.ExecutedEvents(), hops, events, passes, wakes, m.Arb.Stalls, m.Arb.Picks)
	return events, passes, wakes, hops, m.Arb
}

// TestWRREventsPerHop gates, free of timing noise, what a forwarded
// packet costs the WRR fabric: events executed per switch forward, the
// scheduling passes counted, and arbiter stalls on one fixed loaded
// fat-tree run.  With a deferred pass event per kick and an evInputFree
// per crossbar transfer it executed 217 436 events for 27 461 forwards
// (7.92 per hop) and counted 22 475 stalls; with the end-of-instant
// phase and on-demand wake-ups it executes 176 658 (6.385 per hop, of
// which 2.14 passes and 0.02 wake-ups) and counts 15 741 stalls.  The
// budgets sit about 5 % above.
func TestWRREventsPerHop(t *testing.T) {
	const (
		maxEventsPerHop = 6.70
		maxStalls       = 16_500
	)
	perHop, _, _, _, arb := hopCosts(t, ModelWRR)
	if perHop > maxEventsPerHop {
		t.Errorf("%.3f events per forward, budget %.2f", perHop, maxEventsPerHop)
	}
	if arb.Stalls > maxStalls {
		t.Errorf("%d arbiter stalls, budget %d", arb.Stalls, maxStalls)
	}
}

// TestVOQEventsPerHop is TestWRREventsPerHop's twin on the input-queued
// switch under iSLIP: the same fat-tree run, with budgets on events,
// scheduling passes (crossbar and host) and evInputFree wake-ups per
// switch forward.  With a deferred pass per kick that could match and an
// evInputFree per crossbar transfer the run executed 221 733 events for
// 31 107 forwards (7.128 per hop: 1.854 passes and 1.254 wake-ups);
// with the end-of-instant phase it executes 188 117 for 30 045 (6.261:
// 2.148 passes and 0.0353 wake-ups).  The budgets sit about 5 % above.
func TestVOQEventsPerHop(t *testing.T) {
	const (
		maxEventsPerHop = 6.57
		maxPassesPerHop = 2.26
		maxWakesPerHop  = 0.037
	)
	events, passes, wakes, _, _ := hopCosts(t, ModelVOQISLIP)
	if events > maxEventsPerHop {
		t.Errorf("%.3f events per forward, budget %.2f", events, maxEventsPerHop)
	}
	if passes > maxPassesPerHop {
		t.Errorf("%.3f passes per forward, budget %.2f", passes, maxPassesPerHop)
	}
	if wakes > maxWakesPerHop {
		t.Errorf("%.4f evInputFree per forward, budget %.3f", wakes, maxWakesPerHop)
	}
}
