package fabric

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// This file holds the reference executor the end-of-instant phase is
// checked against.  The phase passes only the scheduling points a kick
// marked, and a busy input wakes a pass only where one waits
// (armInputFree).  The reference passes every host and every wired WRR
// port, or every input-queued switch, after every byte-time, whatever
// was marked: what the phase leaves out must be exactly the passes that
// would have done nothing, so both must deliver the same packets at the
// same byte-times.

// instantTicker makes every byte-time of its engine an instant that
// ends with the phase, until stopped: it marks the instant and re-posts
// itself one byte-time ahead.
type instantTicker struct {
	eng     *sim.Engine
	stopped bool
}

func (tk *instantTicker) HandleEvent(sim.Event) {
	if tk.stopped {
		return
	}
	tk.eng.MarkInstant()
	tk.eng.Post(tk.eng.Now()+1, tk, sim.Event{})
}

// endEveryInstant ends every byte-time of n's engine, from Now on, with
// phase and then check (nil: none).  n must run on one engine.  It
// returns the ticker, whose stop leaves the engine to phase the marked
// instants only.
func endEveryInstant(n *Network, phase func() int, check func()) *instantTicker {
	eng := n.Engine
	eng.SetInstantEnd(func() int {
		k := phase()
		if check != nil {
			check()
		}
		return k
	})
	tk := &instantTicker{eng: eng}
	eng.Post(eng.Now(), tk, sim.Event{})
	return tk
}

// passEverywhere is the reference executor's phase: a pass at every
// wired WRR port or every input-queued switch, then at every host, in
// (node, port) order as the phase runs them, whatever the kicks marked.
func (sh *shard) passEverywhere() int {
	clear(sh.dirty.words)
	clear(sh.dirty.sum)
	passes := 0
	for s, node := range sh.n.switches {
		if node.xbar != nil {
			sh.voqSched(s)
			passes++
			continue
		}
		for p := range node.out {
			if node.out[p].wired {
				sh.trySwitch(s, p)
				passes++
			}
		}
	}
	for h := range sh.n.hosts {
		sh.tryHost(h)
		passes++
	}
	return passes
}

// digestRun is one delivery-digest case with its pinned digest.
type digestRun struct {
	name  string
	build func(t *testing.T) *Network
	want  uint64
}

// digestRuns lists every TestWRRDeliveryDigest and TestVOQDeliveryDigest
// case on one engine.
func digestRuns() []digestRun {
	var runs []digestRun
	for k, tc := range wrrDigestCases() {
		tc := tc
		runs = append(runs, digestRun{"wrr/" + tc.name, func(t *testing.T) *Network { return wrrDigestNet(t, tc, 1) }, wrrPinnedDigests[k]})
	}
	for k, tc := range voqDigestCases() {
		tc := tc
		runs = append(runs, digestRun{tc.name, func(t *testing.T) *Network {
			return voqDigestNet(t, tc.spec, tc.model, tc.seed, 1)
		}, voqPinnedDigests[k]})
	}
	return runs
}

// TestPhaseMatchesReferenceExecutor runs every delivery-digest case —
// every routing class, WRR under fault windows, at crossbar speedup 1
// and at LimitOfHighPriority 0, and both input-queued schedulers —
// under the reference executor, and requires the digest the phase
// produces: identical deliveries at identical byte-times.
func TestPhaseMatchesReferenceExecutor(t *testing.T) {
	for _, r := range digestRuns() {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			n := r.build(t)
			endEveryInstant(n, n.shards[0].passEverywhere, nil)
			if got := deliveryDigest(t, n, 120_000); got != r.want {
				t.Errorf("reference executor digest %#016x, phase pinned %#016x", got, r.want)
			}
		})
	}
}

// TestPhaseInvariantsEveryInstant runs every delivery-digest case under
// the phase with every byte-time made an instant, and audits the fabric
// after each instant's phase up to byte-time 30 000: after every one,
// that no packet was delivered, lost or queued twice (injected ≥
// delivered + lost + queued, the difference being the packets on the
// wire), and Network.CheckInvariants after every one of a loaded window
// of 1 024 byte-times and after every 1 024th of the rest.  The fabric
// is then drained and must conserve every packet exactly.
func TestPhaseInvariantsEveryInstant(t *testing.T) {
	const from, to = 20_000, 20_000 + 1024
	for _, r := range digestRuns() {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			n := r.build(t)
			checked := 0
			var failed error
			check := func() {
				now := n.Now()
				if failed != nil {
					return
				}
				injected, delivered, _ := n.Totals()
				if onWire := injected - delivered - n.LostPackets() - n.QueuedPackets(); onWire < 0 {
					failed = fmt.Errorf("t=%d: %d packets more delivered, lost or queued than injected", now, -onWire)
					return
				}
				if now >= from && now < to || now%1024 == 0 {
					checked++
					if err := n.CheckInvariants(); err != nil {
						failed = fmt.Errorf("t=%d: %w", now, err)
					}
				}
			}
			tk := endEveryInstant(n, n.shards[0].endInstant, check)
			n.Start()
			n.Run(30_000)
			if failed != nil {
				t.Fatal(failed)
			}
			if checked < to-from {
				t.Fatalf("only %d instants audited", checked)
			}
			tk.stopped = true
			n.StopGeneration()
			n.Run(n.Now() + 1_000_000)
			if q := n.QueuedPackets(); q != 0 {
				t.Fatalf("%d packets still queued after the drain", q)
			}
			if err := n.CheckConservation(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCanceledWakeUpResettlesOtherWaits is the case the digest runs do
// not reach: two idle ports wait on one busy input, and the port that
// armed its wake-up starts transmitting from another input, which
// cancels the wake-up.  The other port must arm it again (settleWait),
// or it misses the byte-time the input frees — when a pass at every
// port would send.  On a fat-tree edge switch, input k holds a VL 15
// packet for host port q and a best-effort packet for host port p and
// is busy until byte-time 1 100; input j then gets a best-effort packet
// for p.
func TestCanceledWakeUpResettlesOtherWaits(t *testing.T) {
	n := buildWRR(t, topology.Spec{Class: topology.FatTree, K: 4}, 9, 1, nil)
	var node *swNode
	var hostPorts, upPorts []int
	for _, sw := range n.switches {
		hostPorts, upPorts = hostPorts[:0], upPorts[:0]
		for p := range sw.out {
			switch {
			case sw.out[p].downHost >= 0:
				hostPorts = append(hostPorts, p)
			case sw.out[p].downSwitch >= 0:
				upPorts = append(upPorts, p)
			}
		}
		if len(hostPorts) >= 2 && len(upPorts) >= 2 {
			node = sw
			break
		}
	}
	if node == nil {
		t.Fatal("no edge switch with two host and two switch ports")
	}
	s, p, q, k, j := node.id, hostPorts[0], hostPorts[1], upPorts[0], upPorts[1]
	src := (node.out[p].downHost + n.Topo.NumHosts()/2) % n.Topo.NumHosts()
	be := n.AddBestEffort(traffic.BestEffort{Src: src, Dst: node.out[p].downHost, SL: sl.BESL, Mbps: 1})
	mgmt := n.addManagement(src, node.out[q].downHost, 1)
	sh := n.shardForSwitch(s)
	buffer := func(i int, f *Flow, port int) {
		pkt := sh.newPacket(f, f.VL, int(f.Dst), int(f.Wire), n.Now())
		node.in[i].occ[f.VL] += int32(f.Wire)
		node.push(i, int(f.VL), port, pkt)
		sh.kickSwitch(s, port)
	}

	n.Run(1000)
	buffer(k, be, p)
	buffer(k, mgmt, q)
	node.in[k].busyUntil = 1100
	n.Run(1000) // p and q pass, find k busy, and one wake-up is armed
	if !node.in[k].freeArmed {
		t.Fatal("no wake-up armed for the busy input two idle ports wait on")
	}
	n.Run(1001)
	buffer(j, be, p)
	n.Run(1001) // p sends j's packet and drops its claim on k's wake-up
	if want := int64(1001) + int64(be.Wire); node.out[p].busyUntil != want {
		t.Fatalf("port p transmits until %d, want %d", node.out[p].busyUntil, want)
	}
	if !node.in[k].freeArmed || int(node.in[k].waiter) != q+1 {
		t.Fatalf("after p's transmit k's wake-up is armed %v for port %d, want armed for q = %d",
			node.in[k].freeArmed, int(node.in[k].waiter)-1, q)
	}
	n.Run(1100)
	if want := int64(1100) + int64(mgmt.Wire); node.out[q].busyUntil != want {
		t.Errorf("port q transmits until %d, want %d: the pass at the byte-time k frees", node.out[q].busyUntil, want)
	}
	if err := n.CheckBuffers(); err != nil {
		t.Fatal(err)
	}
}
