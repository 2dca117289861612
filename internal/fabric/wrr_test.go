package fabric

import (
	"fmt"
	"testing"

	"repro/internal/faults"
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
	return deliveryDigest(t, n, 120_000)
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

// TestWRRDeliveryDigest pins what the WRR fabric delivers and when, on
// one engine: every delivery's flow, tag, injection and delivery
// byte-times, folded per host.  The constants were recorded before the
// kicks stopped posting passes at busy and unrequested ports and the
// arbiter stopped scanning the low table when the high table serves;
// any change to a pick, a forward or a timestamp moves them.
//
// A two-shard parallel run is held to repeatability only, as in
// TestVOQDeliveryDigest: its windows are placed by the pending events.
func TestWRRDeliveryDigest(t *testing.T) {
	// In the order of wrrDigestCases.
	pinned := []uint64{
		0x2091b59d2edfb02c, 0x523def0f057e75af, 0xc8fe23c6192f488a,
		0x78f4032dc4777f54, 0xa2ffe65faf940276, 0xcd98fbcd63fa9d6d,
		0x388de8916938ce15, 0x4c776cd1c0bd08db, 0x9f81f8a575b3f4ef,
	}
	cases := wrrDigestCases()
	if len(cases) != len(pinned) {
		t.Fatalf("%d cases, %d pinned digests", len(cases), len(pinned))
	}
	for k, tc := range cases {
		tc, want := tc, pinned[k]
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

// TestWRREventsPerHop gates, free of timing noise, what a forwarded
// packet costs the WRR fabric: events executed per switch forward and
// arbiter stalls on one fixed loaded fat-tree run.  When every kick
// posted a pass, this run executed 294 691 events for 27 461 forwards
// (10.73 per hop) and counted 43 737 stalls; since busy and unrequested
// ports are no longer kicked it executes 217 436 (7.92 per hop) and
// counts 22 475, with the same forwards and 33 506 picks either way.
// The budgets sit a little above the new values.
func TestWRREventsPerHop(t *testing.T) {
	const (
		maxEventsPerHop = 8.0
		maxStalls       = 23_000
	)
	n := buildWRR(t, topology.Spec{Class: topology.FatTree, K: 4}, 9, 1, nil)
	m := n.EnableMetrics()
	loadDifferential(t, n, 31)
	hops := 0
	n.OnForward = func(*Packet, int, int) { hops++ }
	n.Start()
	n.Run(400_000)
	if hops < 20_000 {
		t.Fatalf("only %d forwards", hops)
	}
	perHop := float64(n.ExecutedEvents()) / float64(hops)
	t.Logf("%d events for %d forwards (%.3f per hop), %d stalls, %d picks",
		n.ExecutedEvents(), hops, perHop, m.Arb.Stalls, m.Arb.Picks)
	if perHop > maxEventsPerHop {
		t.Errorf("%.3f events per forward, budget %.2f", perHop, maxEventsPerHop)
	}
	if m.Arb.Stalls > maxStalls {
		t.Errorf("%d arbiter stalls, budget %d", m.Arb.Stalls, maxStalls)
	}
}
