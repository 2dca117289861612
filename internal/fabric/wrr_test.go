package fabric

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/arbtable"
	"repro/internal/faults"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// This file holds the tests of the WRR switch's scheduling passes as a
// whole: what the fabric delivers and when, pinned to constants; that a
// pass the kicks leave out would have changed nothing; and what a
// forwarded packet costs in events.

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

// wrrPortState is everything a scheduling pass at one output port can
// write beside its node's queues: the events its shard posts (queued,
// deferred or batched for a barrier), the deliveries, the port itself —
// arbiter cursor and residual, round-robin cursors, timestamps, the
// fault wake-up — and its downstream credit.
type wrrPortState struct {
	scheduled int64
	next      int64
	boundary  int
	delivered int64
	out       outPort
	arb       arbtable.Arbiter
	downOcc   [arbtable.NumVLs]int32
}

func snapshotWRRPort(n *Network, sh *shard, out *outPort) wrrPortState {
	st := wrrPortState{
		scheduled: sh.eng.Stats().Scheduled,
		next:      sh.eng.NextTime(),
		boundary:  len(sh.outbox) + len(sh.credits),
		out:       *out,
		arb:       *out.arb,
	}
	_, st.delivered, _ = n.Totals()
	if down := n.occView(out); down != nil {
		st.downOcc = *down
	}
	return st
}

// switchQueues appends what a pass at a switch can change in its input
// ports to sig: every input's crossbar timestamp and queue lengths, and
// the candidate index.
func switchQueues(node *swNode, sig []int64) []int64 {
	for i := range node.in {
		in := &node.in[i]
		sig = append(sig, in.busyUntil)
		for vl := range in.queues {
			sig = append(sig, int64(in.queues[vl].len()))
		}
	}
	hx := node.heads
	for _, c := range hx.cand {
		sig = append(sig, int64(c))
	}
	for p := range hx.vls {
		sig = append(sig, int64(hx.vls[p]), int64(hx.queued[p]))
	}
	return sig
}

// hostQueues appends a host's send-queue lengths to sig.
func hostQueues(host *hostNode, sig []int64) []int64 {
	for vl := range host.queues {
		sig = append(sig, int64(host.queues[vl].len()))
	}
	return sig
}

// declinedPasses counts the ports passDeclinedPorts ran a pass at.
type declinedPasses struct {
	busyHosts, busySwitch, unrequested int
}

// passDeclinedPorts runs a scheduling pass directly at every port whose
// kick would post nothing — a transmitting host interface, a switch port
// wrrPassIdle calls idle — and fails unless the pass changed nothing.
func passDeclinedPorts(t *testing.T, n *Network, c *declinedPasses) {
	t.Helper()
	var qBefore, qAfter []int64
	check := func(what string, before, after wrrPortState) {
		t.Helper()
		if before != after || !slices.Equal(qBefore, qAfter) {
			t.Fatalf("t=%d %s: a pass the kick would have skipped changed state\nbefore %+v %v\nafter  %+v %v",
				n.Now(), what, before, qBefore, after, qAfter)
		}
	}
	for h, host := range n.hosts {
		sh := n.shardForHost(h)
		if host.out.pending || host.out.busyUntil <= sh.eng.Now() {
			continue
		}
		qBefore = hostQueues(host, qBefore[:0])
		before := snapshotWRRPort(n, sh, &host.out)
		sh.tryHost(h)
		qAfter = hostQueues(host, qAfter[:0])
		check(fmt.Sprintf("host %d", h), before, snapshotWRRPort(n, sh, &host.out))
		c.busyHosts++
	}
	for s, node := range n.switches {
		sh := n.shardForSwitch(s)
		now := sh.eng.Now()
		for p := range node.out {
			out := &node.out[p]
			if !out.wired || out.pending || !n.wrrPassIdle(node, out, p, now) {
				continue
			}
			qBefore = switchQueues(node, qBefore[:0])
			before := snapshotWRRPort(n, sh, out)
			sh.trySwitch(s, p)
			qAfter = switchQueues(node, qAfter[:0])
			check(fmt.Sprintf("switch %d port %d", s, p), before, snapshotWRRPort(n, sh, out))
			if out.busyUntil > now {
				c.busySwitch++
			} else {
				c.unrequested++
			}
		}
	}
}

// TestWRRIdlePassChangesNothing single-steps loaded WRR fabrics and,
// after every event, runs a scheduling pass directly at every port whose
// kick would have posted nothing: the events posted, the queues and
// candidate index, the arbiter's cursor and residual, the round-robin
// cursors, the port timestamps and the downstream credit must all come
// out as they went in.  That is the exactness of the kick rules: what is
// not posted would not have done anything.  The fault case starts just
// before a stall window opens, where only busy ports are declined.
func TestWRRIdlePassChangesNothing(t *testing.T) {
	fatTree := topology.Spec{Class: topology.FatTree, K: 4}
	for _, tc := range []struct {
		name   string
		spec   topology.Spec
		faults bool
	}{
		{"irregular-8", topology.Spec{Class: topology.Irregular, Switches: 8, Seed: 11}, false},
		{"fattree-k4", fatTree, false},
		{"dragonfly-2-2-1", topology.Spec{Class: topology.Dragonfly, A: 2, P: 2, H: 1}, false},
		{"fattree-k4/faults", fatTree, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			n := buildWRR(t, tc.spec, 9, 1, nil)
			from := int64(20_000)
			if tc.faults {
				faultWindows(n)
				from = 29_000
			}
			loadDifferential(t, n, 31)
			n.Start()
			n.Run(from)
			var c declinedPasses
			for step := 0; step < 3000; step++ {
				if !n.Engine.Step() {
					t.Fatal("engine ran dry")
				}
				passDeclinedPorts(t, n, &c)
			}
			if err := n.CheckBuffers(); err != nil {
				t.Fatal(err)
			}
			if tc.faults && n.Now() < 30_000 {
				t.Fatalf("stepped to t=%d only, short of the stall window", n.Now())
			}
			if c.busyHosts == 0 || c.busySwitch == 0 || (c.unrequested == 0) != tc.faults {
				t.Fatalf("declined passes %+v: every class must occur (unrequested ports only without faults)", c)
			}
		})
	}
}

// TestWRRIdleParallelShards is the same check on a two-shard parallel
// run, where kicks also execute in the barrier's credit flush.  The
// direct passes run at window barriers, the only instants another
// goroutine may touch shard state.  ci.sh runs it under -race.
func TestWRRIdleParallelShards(t *testing.T) {
	n := buildWRR(t, topology.Spec{Class: topology.FatTree, K: 4}, 3, 2, nil)
	if !n.Parallel() {
		t.Fatal("2-shard fat-tree should run parallel")
	}
	loadDifferential(t, n, 17)
	n.Start()
	var c declinedPasses
	for until := int64(20_000); until < 60_000; until += 97 {
		n.Run(until)
		passDeclinedPorts(t, n, &c)
	}
	if err := n.CheckBuffers(); err != nil {
		t.Fatal(err)
	}
	if c.busyHosts == 0 || c.busySwitch == 0 || c.unrequested == 0 {
		t.Fatalf("declined passes %+v: every class must occur", c)
	}
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
