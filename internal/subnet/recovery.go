package subnet

// Live failure recovery: the subnet manager's reaction to dead ports.
// A Recovery watches the fabric for elements a failure schedule killed
// — links severed, whole switches crashed — using the same credit-stall
// signal the scheduling passes already consult: a port blocked past
// TimeoutBT is declared dead (short control-plane flap windows stay
// below it and heal on their own).  Each change of the dead set
// triggers one activation, a single atomic step on the simulated clock:
//
//  1. the degraded topology is rebuilt from scratch (crashed switches
//     removed, severed links removed, dead hosts marked),
//  2. routing.Repair computes per-class replacement tables and the
//     CDG verifier re-proves them acyclic BEFORE anything activates,
//  3. the proved tables swap into the admission controller and the
//     manager's own view, which the in-band programmer charges SMPs
//     over,
//  4. flows with dead or disconnected endpoints stop and their
//     reservations are released; flows whose reserved path no longer
//     matches the repaired routes are released and re-admitted
//     through the normal two-phase transaction (with retry/backoff),
//  5. the fabric applies the routes to the data plane
//     (fabric.Network.Reroute: re-VL, drain, sweep, index rebuild,
//     re-arm),
//  6. ports that returned to service are reprogrammed.
//
// Reroute runs after step 4 because step 4 already draws on the
// simulation: the first AdmitWithRetry attempt runs synchronously, and
// a revived flow's StartFlow draws from the network's RNG.
//
// Revival is the same machinery in reverse: when a dead element's
// windows end the dead set shrinks, reclassification yields a
// healthier topology, and the next activation restores routes and
// restarts the stopped flows.

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/admission"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/sl"
	"repro/internal/topology"
)

// Failure detection timing, in byte times: polling well under the
// timeout, a timeout far above packet flight times but below any
// experiment horizon.
const (
	// PollBT is the detection poll period.
	PollBT = 1024
	// TimeoutBT is how long a port must stay blocked before it is
	// declared dead.  It must exceed both any transient control-plane
	// stall window the run injects and one maximum packet flight time
	// (wire + link latency), so pre-crash transmissions land before the
	// crash is acted on.
	TimeoutBT = 8192
)

// trackedConn pairs an admitted connection with its traffic flow so
// activation can displace or stop them together.
type trackedConn struct {
	conn *admission.Conn
	flow *fabric.Flow
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

// Recovery is the subnet manager's failure reaction on one network.
// It is driven entirely by typed events on the network's control lane
// (detection polls, activation steps, re-admission retries), so runs
// remain deterministic.
type Recovery struct {
	m *Manager
	n *fabric.Network

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
	report   routing.RepairReport

	tracked         []*trackedConn
	trackedFlows    map[*fabric.Flow]bool
	stoppedFlows    []*fabric.Flow // untracked flows stopped by activation
	pendingReadmits int
	readmitted      int64

	err error
}

// EnableRecovery attaches the manager's failure recovery to the network
// its Topo describes.  Call after fabric.NewWithTopology and before
// Start; the network may use any switch model but must run on a single
// shard with Config.FailoverEscape.  A nil Faults injector is created
// (ApplySchedule needs one to carry the failure windows), so the
// injector exists when EnableRecovery returns.  The recovery counters
// are the network's ControlCounters.
func (m *Manager) EnableRecovery(n *fabric.Network) (*Recovery, error) {
	switch {
	case n.Adm.DeadHop != nil:
		return nil, fmt.Errorf("subnet: recovery already enabled")
	case n.Parallel():
		return nil, fmt.Errorf("subnet: recovery requires a single shard, the network has %d", n.Cfg.Shards)
	case !n.Cfg.FailoverEscape:
		return nil, fmt.Errorf("subnet: recovery requires Config.FailoverEscape")
	}
	if flight := int64(n.Cfg.PayloadBytes+sl.HeaderBytes) + fabric.LinkLatency; TimeoutBT <= flight {
		return nil, fmt.Errorf("subnet: recovery timeout %d within one packet flight time %d", TimeoutBT, flight)
	}
	if n.Faults == nil {
		n.SetFaults(faults.New(faults.Config{Seed: n.Cfg.Seed}))
	}
	rec := &Recovery{
		m:            m,
		n:            n,
		counters:     n.ControlCounters(),
		blockedSince: make(map[int32]int64),
		dead:         make(map[int32]bool),
		pendingSince: -1,
		trackedFlows: make(map[*fabric.Flow]bool),
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
	return rec, nil
}

// ApplySchedule injects a failure schedule (fabric.Network.ApplyFailures)
// and watches until every window it opens or closes has been detected.
// May be called before Start; the detection poll arms itself on the
// network's control lane.
func (rec *Recovery) ApplySchedule(s faults.Schedule) error {
	if err := rec.n.ApplyFailures(s); err != nil {
		return err
	}
	for _, ev := range s {
		rec.watchUntil = max(rec.watchUntil, max(ev.At, ev.Revive)+TimeoutBT+2*PollBT)
	}
	if !rec.pollPending && len(s) > 0 {
		rec.pollPending = true
		rec.n.Ctrl.PostAfter(PollBT, rec, sim.Event{Kind: evRecoveryPoll})
	}
	return nil
}

// HandleEvent dispatches the recovery's control events.  It implements
// sim.Handler.
func (rec *Recovery) HandleEvent(ev sim.Event) {
	switch ev.Kind {
	case evRecoveryPoll:
		rec.poll()
	}
}

// Track registers an admitted connection and its flow for displacement
// handling.  Untracked flows (best effort, management) are stopped and
// restarted by endpoint liveness alone.
func (rec *Recovery) Track(conn *admission.Conn, f *fabric.Flow) {
	rec.tracked = append(rec.tracked, &trackedConn{conn: conn, flow: f})
	rec.trackedFlows[f] = true
}

// Err returns the first unrecoverable error (a repair whose tables
// could not be proved safe); the fabric keeps running on the previous
// tables, but the caller must treat the run as failed.
func (rec *Recovery) Err() error { return rec.err }

// Degraded returns the degraded topology of the last activation (nil
// before the first).
func (rec *Recovery) Degraded() *topology.Topology { return rec.degraded }

// Report returns the last activation's repair report.
func (rec *Recovery) Report() routing.RepairReport { return rec.report }

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
func (rec *Recovery) Survivors() (conns []*admission.Conn, flows []*fabric.Flow) {
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
			if !rec.dead[k] && now-rec.blockedSince[k] >= TimeoutBT {
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
		n.Ctrl.PostAfter(PollBT, rec, sim.Event{Kind: evRecoveryPoll})
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

// healthy reports whether a flow's endpoints are alive and connected
// under the activated view: the manager's routes, which the data plane
// takes over only at the end of the activation.
func (rec *Recovery) healthy(f *fabric.Flow) bool {
	sw, _ := rec.n.Topo.HostSwitch(int(f.Src))
	return !rec.hostDead[f.Src] && !rec.hostDead[f.Dst] && rec.m.Routes.NextPort(sw, int(f.Dst)) >= 0
}

// activate is the atomic repair step described at the top of the file.
func (rec *Recovery) activate(crashed []bool, removed map[int64]bool, hostDead []bool) {
	n := rec.n
	now := n.Engine.Now()
	rec.counters.RepairsStarted++

	// Rebuild the degraded topology and repair + re-prove the routes.
	degraded := n.Topo.Clone()
	for s, c := range crashed {
		if c {
			if err := degraded.RemoveSwitch(s); err != nil {
				rec.err = fmt.Errorf("subnet: degrading topology: %w", err)
				return
			}
		}
	}
	for _, l := range n.Topo.Links() {
		if removed[linkID(l)] && !crashed[l.A.Switch] && !crashed[l.B.Switch] {
			if err := degraded.RemoveLink(l.A.Switch, l.A.Port); err != nil {
				rec.err = fmt.Errorf("subnet: degrading topology: %w", err)
				return
			}
		}
	}
	routes, rep, err := routing.Repair(degraded)
	if err != nil {
		rec.err = fmt.Errorf("subnet: route repair: %w", err)
		return
	}

	// Swap the proved tables into admission and the manager's view —
	// routes and the degraded topology together, so that SMPs are
	// charged over the fabric that is left; the data plane takes them
	// at the end (Reroute).
	n.Adm.SetRoutes(routes)
	rec.m.Topo, rec.m.Routes = degraded, routes
	rec.crashed, rec.removed, rec.hostDead = crashed, removed, hostDead
	rec.degraded, rec.report = degraded, rep

	// Stop flows that lost an endpoint or their connectivity; displace
	// tracked connections whose reserved path or wire VL no longer
	// matches.
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
		f := tc.flow
		sw, _ := n.Topo.HostSwitch(int(f.Src))
		if rep.FellBack || routes.HopVL(sw, int(f.Dst), f.Base) != f.VL || !slices.Equal(tc.conn.Sites(), sites) {
			displaced = append(displaced, tc)
		}
	}
	// Release every displaced reservation before re-admitting any, so
	// the transactions see the freed capacity.
	for _, tc := range displaced {
		if err := n.Adm.Release(tc.conn); err != nil {
			rec.err = fmt.Errorf("subnet: releasing displaced connection: %w", err)
			return
		}
	}
	for _, tc := range displaced {
		rec.counters.FlowsDisplaced++
		rec.readmit(tc)
	}
	for _, f := range n.Flows() {
		if rec.trackedFlows[f] || f.Stopped() {
			continue
		}
		if !rec.healthy(f) {
			n.StopFlow(f)
			rec.stoppedFlows = append(rec.stoppedFlows, f)
		}
	}
	// Restart untracked flows whose endpoints revived.
	alive := rec.stoppedFlows[:0]
	for _, f := range rec.stoppedFlows {
		if rec.healthy(f) {
			n.StartFlow(f)
			continue
		}
		alive = append(alive, f)
	}
	rec.stoppedFlows = alive

	n.Reroute(routes, crashed, hostDead)

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

// sitesOf computes the arbitration points a flow's connection would
// reserve under the manager's routes, in path order (mirrors
// admission's pathSites).
func (rec *Recovery) sitesOf(f *fabric.Flow) ([]admission.PortID, error) {
	routes := rec.m.Routes
	src, dst := int(f.Src), int(f.Dst)
	switches, err := routes.PathSwitches(src, dst)
	if err != nil {
		return nil, err
	}
	ids := make([]admission.PortID, 0, len(switches)+1)
	ids = append(ids, admission.HostPortID(src))
	for _, sw := range switches {
		ids = append(ids, admission.SwitchPortID(sw, routes.NextPort(sw, dst)))
	}
	return ids, nil
}

// stopTracked stops a tracked connection whose endpoints died or
// disconnected: the flow stops generating and the reservation is
// released immediately (escape entries keep its queued packets
// draining; dead hops skip programming via DeadHop).
func (rec *Recovery) stopTracked(tc *trackedConn) {
	rec.n.StopFlow(tc.flow)
	tc.stopped = true
	rec.counters.FlowsDisplaced++
	if err := rec.n.Adm.Release(tc.conn); err != nil {
		rec.err = fmt.Errorf("subnet: releasing stopped connection: %w", err)
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
	n.Adm.AdmitWithRetry(n.Ctrl, tc.conn.Req, admission.DefaultRetryPolicy(), func(conn *admission.Conn, err error) {
		tc.pending = false
		rec.pendingReadmits--
		if err != nil {
			n.StopFlow(tc.flow)
			tc.stopped = true
			return
		}
		tc.conn = conn
		rec.readmitted++
		if revival {
			tc.stopped = false
			n.StartFlow(tc.flow)
		}
	})
}
