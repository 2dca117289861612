// The data-plane half of live failure recovery.  The subnet manager
// (subnet.Manager.EnableRecovery) detects dead elements, repairs and
// proves the routes and handles the connections; its decisions reach
// the data plane through ApplyFailures, which opens a failure
// schedule's injector windows, and Reroute, which applies one repaired
// route set.  Both work under every switch model.
package fabric

import (
	"fmt"

	"repro/internal/arbtable"
	"repro/internal/faults"
	"repro/internal/routing"
)

// ApplyFailures injects a failure schedule into the network's fault
// injector, which must be attached: each event's link-down windows open
// at its failure time and close at its revival time (or never, for
// permanent failures).
func (n *Network) ApplyFailures(s faults.Schedule) error {
	for i, ev := range s {
		end := faults.Forever
		if ev.Revive > 0 {
			end = ev.Revive
		}
		if ev.Switch < 0 || ev.Switch >= n.Topo.NumSwitches {
			return fmt.Errorf("fabric: failure %d: no switch %d", i, ev.Switch)
		}
		switch ev.Kind {
		case faults.FailLink:
			if !n.Topo.Wired(ev.Switch, ev.Port) {
				return fmt.Errorf("fabric: failure %d: switch %d port %d not wired", i, ev.Switch, ev.Port)
			}
			n.Faults.AddLinkDown(faults.SwitchPortKey(ev.Switch, ev.Port), ev.At, end)
			if h := n.Topo.HostAt(ev.Switch, ev.Port); h >= 0 {
				n.Faults.AddLinkDown(faults.HostKey(h), ev.At, end)
			} else {
				peer := n.Topo.Peer(ev.Switch, ev.Port)
				n.Faults.AddLinkDown(faults.SwitchPortKey(peer.Switch, peer.Port), ev.At, end)
			}
		case faults.FailSwitch:
			for p := 0; p < n.Topo.Ports(); p++ {
				if !n.Topo.Wired(ev.Switch, p) {
					continue
				}
				n.Faults.AddLinkDown(faults.SwitchPortKey(ev.Switch, p), ev.At, end)
				if h := n.Topo.HostAt(ev.Switch, p); h >= 0 {
					n.Faults.AddLinkDown(faults.HostKey(h), ev.At, end)
				}
			}
		default:
			return fmt.Errorf("fabric: failure %d: unknown kind %d", i, int(ev.Kind))
		}
	}
	return nil
}

// StopFlow stops a flow's generation after its current packet;
// StartFlow restarts it.
func (n *Network) StopFlow(f *Flow) { f.stopped = true }

// Reroute is the data-plane step of a route repair.  routes must be
// proved acyclic over the degraded fabric; crashed (by switch) and
// hostDead (by host) are the elements the repair removed, and the
// flows that lost an endpoint are already stopped.  Every flow is
// re-VL'd; packets stranded on dead elements are drained — re-injected
// at their source when the flow survives and its destination is still
// reachable, counted as lost otherwise (never silently dropped); every
// surviving queue is swept for packets whose destination died or
// became unreachable; the request indexes are rebuilt (rebuildIndex)
// and every surviving arbitration point re-arms.  The network must run
// on a single shard (shard-boundary link death would need mirror
// surgery) with Config.FailoverEscape (so packets stranded on a lane
// whose reservation was released still drain at weight 1).
func (n *Network) Reroute(routes *routing.Routes, crashed, hostDead []bool) {
	n.Routes, n.planes = routes, routes.Planes()
	n.crashed, n.hostDead = crashed, hostDead
	for _, f := range n.Flows() {
		sw, _ := n.Topo.HostSwitch(int(f.Src))
		f.VL = routes.HopVL(sw, int(f.Dst), f.Base)
	}

	n.drainDead()
	n.sweepSurvivors()
	// Routes changed and buffers were edited behind push and pop's back.
	n.rebuildIndex()

	// Re-arm every surviving arbitration point: queues and credits
	// changed under them, and dead ports stopped rescheduling.
	for h := range n.hosts {
		if !hostDead[h] {
			n.shardForHost(h).kickHost(h)
		}
	}
	for s, node := range n.switches {
		if crashed[s] {
			continue
		}
		sh := n.shardForSwitch(s)
		for p := range node.out {
			if node.out[p].wired {
				sh.kickSwitch(s, p)
			}
		}
	}
}

// drainDead empties every queue of crashed switches and dead hosts.
// Stranded packets re-inject at their source when the flow survives
// and the destination is reachable; otherwise they are counted lost.
// Crashed switches' credit state is wiped wholesale (their upstream
// view is rebuilt from zero on revival).
func (n *Network) drainDead() {
	for s, node := range n.switches {
		if !n.crashed[s] {
			continue
		}
		sh := n.shardForSwitch(s)
		for p := range node.in {
			in := &node.in[p]
			for vl := range in.queues {
				for in.queues[vl].len() > 0 {
					n.ControlCounters().PacketsDrained++
					sh.reinjectOrLose(in.queues[vl].pop())
				}
			}
			in.occ = [arbtable.NumVLs]int32{}
		}
	}
	for h, node := range n.hosts {
		if !n.hostDead[h] {
			continue
		}
		sh := n.shardForHost(h)
		for vl := range node.queues {
			for node.queues[vl].len() > 0 {
				n.ControlCounters().PacketsDrained++
				sh.lose(node.queues[vl].pop())
			}
		}
	}
}

// sweepSurvivors removes packets whose destination died or became
// unreachable from every surviving queue, preserving the order of the
// survivors and returning the freed credits.
func (n *Network) sweepSurvivors() {
	for h, node := range n.hosts {
		if n.hostDead[h] {
			continue
		}
		sh := n.shardForHost(h)
		sw, _ := n.Topo.HostSwitch(h)
		for vl := range node.queues {
			sh.sweep(&node.queues[vl], sw)
		}
	}
	for s, node := range n.switches {
		if n.crashed[s] {
			continue
		}
		sh := n.shardForSwitch(s)
		for p := range node.in {
			in := &node.in[p]
			for vl := range in.queues {
				in.occ[vl] -= int32(sh.sweep(&in.queues[vl], s))
			}
		}
	}
}

// sweep removes from q, keeping the order of the rest, the packets whose
// destination died or is unreachable from switch sw, and counts them
// lost.  It returns the wire bytes it removed.
func (sh *shard) sweep(q *pktQueue, sw int) (freed int) {
	n := sh.n
	for k, cnt := 0, q.len(); k < cnt; k++ {
		pkt := q.pop()
		if !n.hostDead[pkt.Dst] && n.Routes.NextPort(sw, pkt.Dst) >= 0 {
			q.push(pkt)
			continue
		}
		freed += pkt.Wire
		n.ControlCounters().PacketsDrained++
		sh.lose(pkt)
	}
	return freed
}

// reinjectOrLose returns a drained packet to its source host queue
// when the flow can still deliver it — it is not stopped, and both
// endpoints are alive and connected — and counts it lost otherwise.
func (sh *shard) reinjectOrLose(pkt *Packet) {
	n := sh.n
	f := pkt.Flow
	src, dst := int(f.Src), int(f.Dst)
	if sw, _ := n.Topo.HostSwitch(src); f.stopped || n.hostDead[src] || n.hostDead[dst] || n.Routes.NextPort(sw, dst) < 0 {
		sh.lose(pkt)
		return
	}
	host := n.hosts[src]
	if host.queues[f.VL].len() >= n.queueCap(f) {
		sh.lose(pkt)
		return
	}
	pkt.VL = f.VL // re-bound to the repaired route set's injection lane
	host.queues[f.VL].push(pkt)
	n.ControlCounters().PacketsReinjected++
	n.shardForHost(src).kickHost(src)
}

// lose accounts one packet that no surviving route could deliver: the
// loss is charged to its flow, its shard's conservation counter and
// the control counters, never dropped silently.
func (sh *shard) lose(pkt *Packet) {
	pkt.Flow.lostPkts++
	sh.totalLost++
	sh.n.ControlCounters().PacketsLost++
	sh.freePacket(pkt)
}

// dropArrival intercepts packets landing on dead elements or carrying
// unreachable destinations — in-flight remnants of the pre-failure
// schedule.  It returns true when the packet was consumed (lost).  The
// caller checks that a Reroute has run (crashed is non-nil).
func (sh *shard) dropArrival(out *outPort, pkt *Packet) bool {
	n := sh.n
	if out.downHost >= 0 {
		if !n.hostDead[out.downHost] {
			return false
		}
		sh.lose(pkt)
		return true
	}
	s := out.downSwitch
	if n.crashed[s] {
		// The crashed buffer's credit state was wiped at drain time, so
		// the reservation this packet's transmit made is already gone.
		sh.lose(pkt)
		return true
	}
	if !n.hostDead[pkt.Dst] && n.Routes.NextPort(s, pkt.Dst) >= 0 {
		return false
	}
	// Unreachable destination at a surviving switch: return the credit
	// its transmit consumed, as the packet leaving would have, then
	// account the loss.
	sh.returnCredit(&n.switches[s].in[out.downPort], int(pkt.VL), pkt.Wire)
	sh.lose(pkt)
	return true
}
