// Live failure recovery for the data plane.  A Recovery watches the
// fabric for elements a failure schedule killed — links severed, whole
// switches crashed — using the same credit-stall signal the scheduling
// passes already consult: a port blocked past the detection timeout is
// declared dead (short control-plane flap windows stay below it and
// heal on their own).  Each change of the dead set triggers one
// activation, a single atomic step on the simulated clock:
//
//  1. the degraded topology is rebuilt from scratch (crashed switches
//     removed, severed links removed, dead hosts marked),
//  2. routing.Repair computes per-class replacement tables and the
//     CDG verifier re-proves them acyclic BEFORE anything activates,
//  3. the proved tables swap in (fabric, admission controller, and
//     the caller's OnSwap hook for the subnet manager),
//  4. flows with dead or disconnected endpoints stop and their
//     reservations are released; flows whose reserved path no longer
//     matches the repaired routes are released and re-admitted
//     through the normal two-phase transaction (with retry/backoff),
//  5. packets stranded on dead elements are drained — re-injected at
//     their source when it survives and the destination is still
//     reachable, counted as lost otherwise (never silently dropped) —
//     and every surviving queue is swept for packets whose
//     destination died or became unreachable,
//  6. every surviving arbitration point is re-armed.
//
// Revival is the same machinery in reverse: when a dead element's
// windows end the dead set shrinks, reclassification yields a
// healthier topology, and the next activation restores routes and
// restarts the stopped flows.
//
// Recovery works under every switch model: the route swap re-stamps
// every buffered packet's output and rebuilds the switches' request
// indexes (rebuildIndex).  It requires a single-shard network
// (shard-boundary link death would need mirror surgery) and
// Config.FailoverEscape (so packets stranded on a lane whose
// reservation was released still drain at weight 1).
package fabric

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/sl"
	"repro/internal/topology"
)

// RecoveryConfig parameterizes failure detection and repair.
type RecoveryConfig struct {
	// PollBT is the detection poll period in byte times.
	PollBT int64
	// TimeoutBT is how long a port must stay blocked before it is
	// declared dead.  It must exceed both any transient control-plane
	// stall window the run injects and one maximum packet flight time
	// (wire + link latency), so pre-crash transmissions land before the
	// crash is acted on.
	TimeoutBT int64
	// Retry bounds the re-admission attempts of displaced connections.
	Retry admission.RetryPolicy
	// Counters receives the recovery metrics; nil allocates a private
	// set (read it back via Counters).
	Counters *metrics.ControlCounters
	// OnSwap, when set, observes every route swap right after
	// activation: the previous and the repaired route set plus the
	// repair report.  The failover experiment points the subnet
	// manager's route view here.
	OnSwap func(prev, next *routing.Routes, rep routing.RepairReport)
}

// DefaultRecoveryConfig returns detection parameters suited to the
// evaluation fabrics: polling well under the timeout, a timeout far
// above packet flight times but below any experiment horizon.
func DefaultRecoveryConfig() RecoveryConfig {
	return RecoveryConfig{PollBT: 1024, TimeoutBT: 8192, Retry: admission.DefaultRetryPolicy()}
}

// trackedConn pairs an admitted connection with its traffic flow so
// activation can displace or stop them together.
type trackedConn struct {
	conn *admission.Conn
	flow *Flow
	// stopped marks a connection whose reservation was released because
	// an endpoint died or the pair disconnected; revival re-admits it.
	stopped bool
	// pending marks an in-flight re-admission; activation scans skip
	// the entry until its outcome settles.
	pending bool
}

// evRecoveryPoll is the Recovery handler's detection-poll event (its
// kind space is private, like every sim.Handler's).
const evRecoveryPoll sim.Kind = iota

// Recovery is the failure-recovery subsystem of one network.  It is
// driven entirely by typed events on the network's control lane
// (detection polls, activation steps, re-admission retries), so runs
// remain deterministic.
type Recovery struct {
	n   *Network
	cfg RecoveryConfig

	counters *metrics.ControlCounters

	// Detection state: the watched injector keys, when each first
	// became blocked (-1 = currently unblocked), and the dead set.
	watch        []int32
	blockedSince map[int32]int64
	dead         map[int32]bool
	detected     int64 // dead-set additions, cumulative
	// pendingSince is the earliest blocked-since among keys declared
	// dead since the last activation (-1 when none): the start of the
	// outage the next activation's time-to-repair is measured from.
	pendingSince int64

	// watchUntil bounds the polling loop: past it no scheduled window
	// can still change the dead set, so polling stops and drains leave
	// a quiet engine.
	watchUntil  int64
	pollPending bool

	// Activated classification (what the last activation acted on).
	crashed  []bool         // by switch
	hostDead []bool         // by host
	removed  map[int64]bool // severed links, by linkID
	degraded *topology.Topology

	tracked         []*trackedConn
	trackedFlows    map[*Flow]bool
	stoppedFlows    []*Flow // untracked flows stopped by activation
	pendingReadmits int
	readmitted      int64

	err error
}

// EnableRecovery attaches a failure-recovery subsystem to the network.
// Call after NewWithTopology and before Start; the network may use any
// switch model but must run on a single shard with
// Config.FailoverEscape.  A nil Faults injector is created on demand
// (ApplySchedule needs one to carry the failure windows).
func (n *Network) EnableRecovery(cfg RecoveryConfig) (*Recovery, error) {
	switch {
	case n.rec != nil:
		return nil, fmt.Errorf("fabric: recovery already enabled")
	case n.Parallel():
		return nil, fmt.Errorf("fabric: recovery requires a single shard, the network has %d", len(n.shards))
	case !n.Cfg.FailoverEscape:
		return nil, fmt.Errorf("fabric: recovery requires Config.FailoverEscape")
	}
	if cfg.PollBT < 1 || cfg.TimeoutBT < 1 {
		return nil, fmt.Errorf("fabric: recovery poll %d / timeout %d must be positive", cfg.PollBT, cfg.TimeoutBT)
	}
	if flight := int64(n.Cfg.PayloadBytes+sl.HeaderBytes) + LinkLatency; cfg.TimeoutBT <= flight {
		return nil, fmt.Errorf("fabric: recovery timeout %d within one packet flight time %d", cfg.TimeoutBT, flight)
	}
	if n.Faults == nil {
		n.SetFaults(faults.New(faults.Config{Seed: n.Cfg.Seed}))
	}
	rec := &Recovery{
		n:            n,
		cfg:          cfg,
		counters:     cfg.Counters,
		blockedSince: make(map[int32]int64),
		dead:         make(map[int32]bool),
		pendingSince: -1,
		trackedFlows: make(map[*Flow]bool),
	}
	if rec.counters == nil {
		rec.counters = &metrics.ControlCounters{}
	}
	for h := 0; h < n.Topo.NumHosts(); h++ {
		rec.watch = append(rec.watch, faults.HostKey(h))
	}
	for s := 0; s < n.Topo.NumSwitches; s++ {
		for p := 0; p < n.Topo.Ports(); p++ {
			if n.Topo.Wired(s, p) {
				rec.watch = append(rec.watch, faults.SwitchPortKey(s, p))
			}
		}
	}
	for _, k := range rec.watch {
		rec.blockedSince[k] = -1
	}
	n.Adm.DeadHop = rec.deadPort
	n.rec = rec
	return rec, nil
}

// ApplySchedule injects a failure schedule: each event's injector
// windows open at its failure time and close at its revival time (or
// never, for permanent failures).  May be called before Start; the
// detection poll arms itself on the network's engine.
func (rec *Recovery) ApplySchedule(s faults.Schedule) error {
	n := rec.n
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
		horizon := ev.At + rec.cfg.TimeoutBT + 2*rec.cfg.PollBT
		if ev.Revive > 0 {
			horizon = ev.Revive + rec.cfg.TimeoutBT + 2*rec.cfg.PollBT
		}
		if horizon > rec.watchUntil {
			rec.watchUntil = horizon
		}
	}
	if !rec.pollPending && len(s) > 0 {
		rec.pollPending = true
		n.Ctrl.PostAfter(rec.cfg.PollBT, rec, sim.Event{Kind: evRecoveryPoll})
	}
	return nil
}

// HandleEvent dispatches the recovery subsystem's control events.  It
// implements sim.Handler.
func (rec *Recovery) HandleEvent(ev sim.Event) {
	switch ev.Kind {
	case evRecoveryPoll:
		rec.poll()
	}
}

// Track registers an admitted connection and its flow for displacement
// handling.  Untracked flows (best effort, management) are stopped and
// restarted by endpoint liveness alone.
func (rec *Recovery) Track(conn *admission.Conn, f *Flow) {
	rec.tracked = append(rec.tracked, &trackedConn{conn: conn, flow: f})
	rec.trackedFlows[f] = true
}

// Err returns the first unrecoverable error (a repair whose tables
// could not be proved safe); the fabric keeps running on the previous
// tables, but the caller must treat the run as failed.
func (rec *Recovery) Err() error { return rec.err }

// Counters returns the recovery metrics set.
func (rec *Recovery) Counters() *metrics.ControlCounters { return rec.counters }

// Degraded returns the degraded topology of the last activation (nil
// before the first).
func (rec *Recovery) Degraded() *topology.Topology { return rec.degraded }

// DetectedKeys returns how many watched ports were ever declared dead.
func (rec *Recovery) DetectedKeys() int64 { return rec.detected }

// PendingReadmits returns the number of re-admissions still in flight.
func (rec *Recovery) PendingReadmits() int { return rec.pendingReadmits }

// Readmitted returns how many displaced or revived connections were
// successfully re-admitted.
func (rec *Recovery) Readmitted() int64 { return rec.readmitted }

// Survivors returns the tracked connections whose reservation is
// still live (neither stopped by a failure nor mid-readmission),
// paired with their flows, so a caller can release them and drive the
// fabric to a fully converged end state.
func (rec *Recovery) Survivors() (conns []*admission.Conn, flows []*Flow) {
	for _, tc := range rec.tracked {
		if tc.stopped || tc.pending {
			continue
		}
		conns = append(conns, tc.conn)
		flows = append(flows, tc.flow)
	}
	return conns, flows
}

// HostDead reports whether the last activation classified host h dead.
func (rec *Recovery) HostDead(h int) bool {
	return rec.hostDead != nil && rec.hostDead[h]
}

// CrashedSwitch reports whether the last activation classified switch
// s crashed.
func (rec *Recovery) crashedSwitch(s int) bool {
	return rec.crashed != nil && rec.crashed[s]
}

// deadPort implements admission.Controller.DeadHop: a hop is dead when
// its injector key is in the dead set — its data plane is gone, so
// releases skip programming it.
func (rec *Recovery) deadPort(id admission.PortID) bool {
	if id.Host >= 0 {
		return rec.dead[faults.HostKey(id.Host)]
	}
	return rec.dead[faults.SwitchPortKey(id.Switch, id.Port)]
}

// poll is the detection pass: every watched key's blocked state is
// sampled, keys blocked past the timeout join the dead set, unblocked
// dead keys leave it (revival), and any change reclassifies.
func (rec *Recovery) poll() {
	rec.pollPending = false
	if rec.err != nil {
		return
	}
	n := rec.n
	now := n.Engine.Now()
	changed := false
	for _, k := range rec.watch {
		if n.Faults.BlockedUntil(k, now) > now {
			if rec.blockedSince[k] < 0 {
				rec.blockedSince[k] = now
			}
			if !rec.dead[k] && now-rec.blockedSince[k] >= rec.cfg.TimeoutBT {
				rec.dead[k] = true
				rec.detected++
				if rec.pendingSince < 0 || rec.blockedSince[k] < rec.pendingSince {
					rec.pendingSince = rec.blockedSince[k]
				}
				changed = true
			}
		} else {
			rec.blockedSince[k] = -1
			if rec.dead[k] {
				delete(rec.dead, k)
				changed = true
			}
		}
	}
	if changed {
		rec.reclassify()
	}
	if now < rec.watchUntil {
		rec.pollPending = true
		n.Ctrl.PostAfter(rec.cfg.PollBT, rec, sim.Event{Kind: evRecoveryPoll})
	}
}

// linkID canonically names an inter-switch link by its two port keys.
func linkID(l topology.Link) int64 {
	return int64(faults.SwitchPortKey(l.A.Switch, l.A.Port))<<32 |
		int64(uint32(faults.SwitchPortKey(l.B.Switch, l.B.Port)))
}

// reclassify rebuilds the desired degraded view from the dead set —
// from scratch, so failure and revival are the same computation — and
// activates when it differs from the last activated view.  A dead-set
// change that leaves the view alone (a link revived into a crashed
// switch) still heals the revived port, as activation's last step
// would.
func (rec *Recovery) reclassify() {
	n := rec.n
	crashed := make([]bool, n.Topo.NumSwitches)
	for s := range crashed {
		crashed[s] = rec.crashedCalc(s)
	}
	removed := make(map[int64]bool)
	for _, l := range n.Topo.Links() {
		if crashed[l.A.Switch] || crashed[l.B.Switch] ||
			rec.dead[faults.SwitchPortKey(l.A.Switch, l.A.Port)] ||
			rec.dead[faults.SwitchPortKey(l.B.Switch, l.B.Port)] {
			removed[linkID(l)] = true
		}
	}
	hostDead := make([]bool, n.Topo.NumHosts())
	for h := range hostDead {
		s, p := n.Topo.HostSwitch(h)
		hostDead[h] = rec.dead[faults.HostKey(h)] || crashed[s] ||
			rec.dead[faults.SwitchPortKey(s, p)]
	}
	if rec.sameClassification(crashed, removed, hostDead) {
		n.Adm.ReprogramStale()
		return
	}
	rec.activate(crashed, removed, hostDead)
}

// crashedCalc reports whether every wired port (and every attached
// host link) of switch s is dead — the signature of a whole-switch
// crash, as opposed to individual link failures.
func (rec *Recovery) crashedCalc(s int) bool {
	topo := rec.n.Topo
	wired := 0
	for p := 0; p < topo.Ports(); p++ {
		if !topo.Wired(s, p) {
			continue
		}
		wired++
		if !rec.dead[faults.SwitchPortKey(s, p)] {
			return false
		}
		if h := topo.HostAt(s, p); h >= 0 && !rec.dead[faults.HostKey(h)] {
			return false
		}
	}
	return wired > 0
}

// sameClassification reports whether a classification equals the last
// activated one — before the first activation, the pristine view.
func (rec *Recovery) sameClassification(crashed []bool, removed map[int64]bool, hostDead []bool) bool {
	if rec.crashed == nil {
		return !slices.Contains(crashed, true) && !slices.Contains(hostDead, true) && len(removed) == 0
	}
	return slices.Equal(crashed, rec.crashed) && slices.Equal(hostDead, rec.hostDead) && maps.Equal(removed, rec.removed)
}

// routable reports whether dstHost is reachable from switch sw under
// the current route set.
func (rec *Recovery) routableSw(sw, dstHost int) bool {
	dsw, _ := rec.n.Topo.HostSwitch(dstHost)
	return sw == dsw || rec.n.Routes.NextPortToSwitch(sw, dsw) >= 0
}

func (rec *Recovery) routable(srcHost, dstHost int) bool {
	sw, _ := rec.n.Topo.HostSwitch(srcHost)
	return rec.routableSw(sw, dstHost)
}

// healthy reports whether a flow's endpoints are alive and connected
// under the activated view.
func (rec *Recovery) healthy(f *Flow) bool {
	return !rec.hostDead[f.Src] && !rec.hostDead[f.Dst] && rec.routable(f.Src, f.Dst)
}

// activate is the atomic repair step described in the package comment.
func (rec *Recovery) activate(crashed []bool, removed map[int64]bool, hostDead []bool) {
	n := rec.n
	now := n.Engine.Now()
	rec.counters.RepairsStarted++

	// Rebuild the degraded topology and repair + re-prove the routes.
	degraded := n.Topo.Clone()
	for s, c := range crashed {
		if c {
			if err := degraded.RemoveSwitch(s); err != nil {
				rec.err = fmt.Errorf("fabric: degrading topology: %w", err)
				return
			}
		}
	}
	for _, l := range n.Topo.Links() {
		if removed[linkID(l)] && !crashed[l.A.Switch] && !crashed[l.B.Switch] {
			if err := degraded.RemoveLink(l.A.Switch, l.A.Port); err != nil {
				rec.err = fmt.Errorf("fabric: degrading topology: %w", err)
				return
			}
		}
	}
	newRoutes, rep, err := routing.Repair(degraded)
	if err != nil {
		rec.err = fmt.Errorf("fabric: route repair: %w", err)
		return
	}

	// Swap the proved tables in, everywhere routes are consulted.
	prev := n.Routes
	prevVL := make(map[*Flow]uint8, len(n.flows))
	for _, f := range n.flows {
		prevVL[f] = f.VL
	}
	n.Routes = newRoutes
	n.planes = newRoutes.Planes()
	n.Adm.SetRoutes(newRoutes)
	rec.crashed, rec.removed, rec.hostDead = crashed, removed, hostDead
	rec.degraded = degraded
	if rec.cfg.OnSwap != nil {
		rec.cfg.OnSwap(prev, newRoutes, rep)
	}
	for _, f := range n.flows {
		f.VL = n.Routes.HopVL(rec.srcSwitch(f), f.Dst, f.Base)
	}

	// Stop flows that lost an endpoint or their connectivity; displace
	// tracked connections whose reserved path no longer matches.
	var displaced []*trackedConn
	for _, tc := range rec.tracked {
		if tc.pending {
			continue // outcome of an earlier activation still settling
		}
		if tc.stopped {
			if rec.healthy(tc.flow) {
				rec.readmit(tc) // revival
			}
			continue
		}
		if !rec.healthy(tc.flow) {
			rec.stopTracked(tc)
			continue
		}
		sites, err := rec.sitesOf(tc.flow)
		if err != nil {
			rec.stopTracked(tc)
			continue
		}
		if rep.FellBack || tc.flow.VL != prevVL[tc.flow] || !slices.Equal(tc.conn.Sites(), sites) {
			displaced = append(displaced, tc)
		}
	}
	// Release every displaced reservation before re-admitting any, so
	// the transactions see the freed capacity.
	for _, tc := range displaced {
		if err := n.Adm.Release(tc.conn); err != nil {
			rec.err = fmt.Errorf("fabric: releasing displaced connection: %w", err)
			return
		}
	}
	for _, tc := range displaced {
		rec.counters.FlowsDisplaced++
		rec.readmit(tc)
	}
	for _, f := range n.flows {
		if rec.trackedFlows[f] || f.stopped {
			continue
		}
		if !rec.healthy(f) {
			f.stopped = true
			rec.stoppedFlows = append(rec.stoppedFlows, f)
		}
	}
	// Restart untracked flows whose endpoints revived.
	alive := rec.stoppedFlows[:0]
	for _, f := range rec.stoppedFlows {
		if rec.healthy(f) {
			f.stopped = false
			n.StartFlow(f)
			continue
		}
		alive = append(alive, f)
	}
	rec.stoppedFlows = alive

	// Drain dead elements, then sweep survivors for packets that lost
	// their destination.
	rec.drainDead()
	rec.sweepSurvivors()
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

	// Heal ports that returned to service: releases that crossed them
	// while they were dead skipped their programming, so a revived
	// port's active table may be stale.
	n.Adm.ReprogramStale()

	rec.counters.RepairsCompleted++
	if rec.pendingSince >= 0 {
		rec.counters.ObserveRepairTime(now - rec.pendingSince)
	}
	rec.pendingSince = -1
}

// srcSwitch returns the switch a flow injects at.
func (rec *Recovery) srcSwitch(f *Flow) int {
	sw, _ := rec.n.Topo.HostSwitch(f.Src)
	return sw
}

// sitesOf computes the arbitration points a flow's connection would
// reserve under the current route set, in path order (mirrors
// admission's pathSites).
func (rec *Recovery) sitesOf(f *Flow) ([]admission.PortID, error) {
	n := rec.n
	switches, err := n.Routes.PathSwitches(f.Src, f.Dst)
	if err != nil {
		return nil, err
	}
	ids := make([]admission.PortID, 0, len(switches)+1)
	ids = append(ids, admission.HostPortID(f.Src))
	for _, sw := range switches {
		ids = append(ids, admission.SwitchPortID(sw, n.Routes.NextPort(sw, f.Dst)))
	}
	return ids, nil
}

// stopTracked stops a tracked connection whose endpoints died or
// disconnected: the flow stops generating and the reservation is
// released immediately (escape entries keep its queued packets
// draining; dead hops skip programming via DeadHop).
func (rec *Recovery) stopTracked(tc *trackedConn) {
	tc.flow.stopped = true
	tc.stopped = true
	rec.counters.FlowsDisplaced++
	if err := rec.n.Adm.Release(tc.conn); err != nil {
		rec.err = fmt.Errorf("fabric: releasing stopped connection: %w", err)
	}
}

// readmit re-admits a displaced or revived connection through the
// normal retry transaction.  On success a revived entry's flow
// restarts; on failure the flow stops (its reservation is already
// released) until a later activation retries.
func (rec *Recovery) readmit(tc *trackedConn) {
	n := rec.n
	tc.pending = true
	rec.pendingReadmits++
	revival := tc.stopped
	n.Adm.AdmitWithRetry(n.Ctrl, tc.conn.Req, rec.cfg.Retry, func(conn *admission.Conn, err error) {
		tc.pending = false
		rec.pendingReadmits--
		if err != nil {
			tc.flow.stopped = true
			tc.stopped = true
			return
		}
		tc.conn = conn
		rec.readmitted++
		if revival {
			tc.stopped = false
			tc.flow.stopped = false
			n.StartFlow(tc.flow)
		}
	})
}

// drainDead empties every queue of crashed switches and dead hosts.
// Stranded packets re-inject at their source when the flow survives
// and the destination is reachable; otherwise they are counted lost.
// Crashed switches' credit state is wiped wholesale (their upstream
// view is rebuilt from zero on revival).
func (rec *Recovery) drainDead() {
	n := rec.n
	for s, node := range n.switches {
		if !rec.crashed[s] {
			continue
		}
		sh := n.shardForSwitch(s)
		for p := range node.in {
			in := &node.in[p]
			for vl := range in.queues {
				for in.queues[vl].len() > 0 {
					rec.counters.PacketsDrained++
					rec.reinjectOrLose(sh, in.queues[vl].pop())
				}
			}
			in.occ = [arbtable.NumVLs]int32{}
		}
	}
	for h, node := range n.hosts {
		if !rec.hostDead[h] {
			continue
		}
		sh := n.shardForHost(h)
		for vl := range node.queues {
			for node.queues[vl].len() > 0 {
				rec.counters.PacketsDrained++
				rec.lose(sh, node.queues[vl].pop())
			}
		}
	}
}

// sweepSurvivors removes packets whose destination died or became
// unreachable from every surviving queue, preserving the order of the
// survivors and returning the freed credits.
func (rec *Recovery) sweepSurvivors() {
	n := rec.n
	for h, node := range n.hosts {
		if rec.hostDead[h] {
			continue
		}
		sh := n.shardForHost(h)
		sw, _ := n.Topo.HostSwitch(h)
		for vl := range node.queues {
			rec.sweep(sh, &node.queues[vl], sw)
		}
	}
	for s, node := range n.switches {
		if rec.crashed[s] {
			continue
		}
		sh := n.shardForSwitch(s)
		for p := range node.in {
			in := &node.in[p]
			for vl := range in.queues {
				in.occ[vl] -= int32(rec.sweep(sh, &in.queues[vl], s))
			}
		}
	}
}

// sweep removes from q, keeping the order of the rest, the packets whose
// destination died or is unreachable from switch sw, and counts them
// lost.  It returns the wire bytes it removed.
func (rec *Recovery) sweep(sh *shard, q *pktQueue, sw int) (freed int) {
	for k, cnt := 0, q.len(); k < cnt; k++ {
		pkt := q.pop()
		if !rec.hostDead[pkt.Dst] && rec.routableSw(sw, pkt.Dst) {
			q.push(pkt)
			continue
		}
		freed += pkt.Wire
		rec.counters.PacketsDrained++
		rec.lose(sh, pkt)
	}
	return freed
}

// reinjectOrLose returns a drained packet to its source host queue
// when the flow can still deliver it, and counts it lost otherwise.
func (rec *Recovery) reinjectOrLose(sh *shard, pkt *Packet) {
	n := rec.n
	f := pkt.Flow
	if f.stopped || !rec.healthy(f) {
		rec.lose(sh, pkt)
		return
	}
	host := n.hosts[f.Src]
	if host.queues[f.VL].len() >= n.queueCap(f) {
		rec.lose(sh, pkt)
		return
	}
	pkt.VL = f.VL // re-bound to the repaired route set's injection lane
	host.queues[f.VL].push(pkt)
	rec.counters.PacketsReinjected++
	n.shardForHost(f.Src).kickHost(f.Src)
}

// lose accounts one packet that no surviving route could deliver: the
// loss is charged to its flow, its shard's conservation counter and
// the recovery metrics, never dropped silently.
func (rec *Recovery) lose(sh *shard, pkt *Packet) {
	pkt.Flow.lostPkts++
	sh.totalLost++
	rec.counters.PacketsLost++
	sh.freePacket(pkt)
}

// dropArrival intercepts packets landing on dead elements or carrying
// unreachable destinations — in-flight remnants of the pre-failure
// schedule.  It returns true when the packet was consumed (lost).
func (rec *Recovery) dropArrival(sh *shard, out *outPort, pkt *Packet) bool {
	if rec.crashed == nil {
		return false // nothing activated yet
	}
	n := rec.n
	if out.downHost >= 0 {
		if !rec.hostDead[out.downHost] {
			return false
		}
		rec.lose(sh, pkt)
		return true
	}
	s := out.downSwitch
	if rec.crashed[s] {
		// The crashed buffer's credit state was wiped at drain time, so
		// the reservation this packet's transmit made is already gone.
		rec.lose(sh, pkt)
		return true
	}
	if !rec.hostDead[pkt.Dst] && rec.routableSw(s, pkt.Dst) {
		return false
	}
	// Unreachable destination at a surviving switch: return the credit
	// its transmit consumed, as the packet leaving would have, then
	// account the loss.
	sh.returnCredit(&n.switches[s].in[out.downPort], int(pkt.VL), pkt.Wire)
	rec.lose(sh, pkt)
	return true
}
