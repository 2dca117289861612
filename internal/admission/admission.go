// Package admission implements connection admission control: a
// request is studied at every arbitration point on its path — the
// source host interface and each switch output port — and accepted
// only when all of them can reserve the requested weight at the
// service level's table distance (paper section 4.2).
//
// Admission is a two-phase transaction across the path:
//
//   - Decide: every hop is checked read-only.  A hop that is
//     quarantined (ErrHopDown), currently mid-reprogram (ErrHopBusy),
//     over budget (ErrOverBudget) or out of table space
//     (core.ErrNoSpace) refuses the request before any table is
//     written.  A hop that can take it answers with a core.Decision:
//     the sequence the weight joins, or where a fresh one goes.
//   - Prepare: every hop carries out its Decision on its shadow
//     (control-plane) table (core.PortTable.Prepare).  No path crosses
//     a port twice, so no hop's decision is stale by then, and a
//     prepare cannot fail.
//   - Commit: each hop's shadow table is programmed into its
//     data plane.  With no Programmer set, the default, that is one swap
//     at every hop (core.PortTable.Apply).  With one, each hop's
//     shadow/active difference becomes a Delta of changed 16-entry blocks
//     that the Programmer delivers — as simulated SMPs with MAD latency,
//     in subnet.InbandProgrammer.
package admission

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ErrHopBusy marks an admission rejected because a hop on the path is
// being reprogrammed: its previous delta is still in flight and its
// next table version is not yet settled.  Callers retry with backoff
// (AdmitWithRetry) rather than treating it as lack of capacity.
var ErrHopBusy = errors.New("admission: hop mid-reprogram")

// ErrHopDown marks an admission rejected because a hop on the path is
// quarantined: the control plane could not reach its port (lost SMPs,
// a downed link) and took it out of service until an audit read-back
// succeeds.  Unlike ErrHopBusy this is not worth an immediate retry —
// the hop stays down for a macroscopic time — so AdmitWithRetry fails
// fast instead of backing off.
var ErrHopDown = errors.New("admission: hop down (quarantined)")

// ErrOverBudget marks an admission refused because a hop's reserved
// weight plus the request would exceed the controller's Budget — lack
// of bandwidth, as opposed to lack of table entries (core.ErrNoSpace).
var ErrOverBudget = errors.New("over budget")

// PortID names one arbitration point of the fabric, so programmers can
// attribute costs (hop distance from the subnet manager) to the port a
// delta is for.
type PortID struct {
	Host   int // host index, or -1 for a switch port
	Switch int // switch index, or -1 for a host interface
	Port   int // output port within the switch
}

// HostPortID returns the PortID of host h's injection interface.
func HostPortID(h int) PortID { return PortID{Host: h, Switch: -1, Port: -1} }

// SwitchPortID returns the PortID of switch s's output port q.
func SwitchPortID(s, q int) PortID { return PortID{Host: -1, Switch: s, Port: q} }

// String implements fmt.Stringer.
func (id PortID) String() string {
	if id.Host >= 0 {
		return fmt.Sprintf("host %d", id.Host)
	}
	return fmt.Sprintf("switch %d port %d", id.Switch, id.Port)
}

// Programmer carries committed deltas from the control plane to a
// port's data plane.  Implementations must eventually deliver every
// block of the delta to pt.DeliverBlock (in any order), and — when the
// port's shadow table changed again in the meantime — chain a new
// BeginProgram once the delta has been applied.  A controller without
// one programs synchronously, at no cost: the batch experiments'
// semantics, where the data plane matches the control plane as soon as
// Admit or Release returns.
type Programmer interface {
	Program(id PortID, pt *core.PortTable, d core.Delta) error
}

// Ports owns one arbitration table per output port of the network:
// one per host (the host channel adapter's injection port) and one per
// switch port up to the topology's radix — no port at or above
// Topo.Ports() is ever wired, routed through or repaired onto.  The
// simulator's arbiters read the same tables the admission controller
// writes.
type Ports struct {
	Host   []*core.PortTable   // indexed by host
	Switch [][]*core.PortTable // [switch][port], port < Topo.Ports()
}

// NewPorts builds empty tables for every output port of the topology,
// each with LimitOfHighPriority limit and low as its low-priority table.
// The tables come from core.NewPortTables' slabs and the rows of Switch
// from one slice of pointers into them, so the ports cost a handful of
// allocations whatever the fabric's size.
func NewPorts(topo *topology.Topology, limit uint8, low []arbtable.Entry) *Ports {
	hosts, radix := topo.NumHosts(), topo.Ports()
	tables := core.NewPortTables(hosts+topo.NumSwitches*radix, limit, low)
	p := &Ports{
		Host:   tables[:hosts:hosts],
		Switch: make([][]*core.PortTable, topo.NumSwitches),
	}
	for s := range p.Switch {
		lo := hosts + s*radix
		p.Switch[s] = tables[lo : lo+radix : lo+radix]
	}
	return p
}

// Each calls fn for every output-port table: the host interfaces in
// host order, then the switch ports by (switch, port).
func (p *Ports) Each(fn func(PortID, *core.PortTable)) {
	for h, tb := range p.Host {
		fn(HostPortID(h), tb)
	}
	for s, row := range p.Switch {
		for q, tb := range row {
			fn(SwitchPortID(s, q), tb)
		}
	}
}

// hop identifies one arbitration point on a path: its table, the
// reservation made there, and its PortID packed into two int32s so that
// a connection's hop list stays small.
type hop struct {
	table *core.PortTable
	res   core.Reservation
	sw, n int32 // switch and output port, or -1 and the host index
}

// newHop returns the hop of port id, whose table is tb.
func newHop(id PortID, tb *core.PortTable) hop {
	if id.Host >= 0 {
		return hop{table: tb, sw: -1, n: int32(id.Host)}
	}
	return hop{table: tb, sw: int32(id.Switch), n: int32(id.Port)}
}

// id returns the hop's PortID.
func (h *hop) id() PortID {
	if h.sw < 0 {
		return HostPortID(int(h.n))
	}
	return SwitchPortID(int(h.sw), int(h.n))
}

// Conn is an admitted connection: the request plus everything derived
// during admission that the traffic generator and the measurement code
// need.
type Conn struct {
	ID  int
	Req traffic.Request

	Weight   int   // arbitration-table weight reserved per hop
	Hops     int   // arbitration points: 1 (host interface) + switches
	Deadline int64 // end-to-end guarantee in byte times

	hops []hop
	slot int // index in the controller's live ledger while admitted
}

// newConn returns a connection holding a copy of the reserved hops.
// The connection and its hop list are one heap object up to eight hops
// — every fat-tree and dragonfly route — in steps of two so that a
// short path does not pay for a long one.
func newConn(hops []hop) *Conn {
	var conn *Conn
	switch n := len(hops); {
	case n <= 2:
		b := new(struct {
			Conn
			buf [2]hop
		})
		b.hops, conn = b.buf[:0], &b.Conn
	case n <= 4:
		b := new(struct {
			Conn
			buf [4]hop
		})
		b.hops, conn = b.buf[:0], &b.Conn
	case n <= 6:
		b := new(struct {
			Conn
			buf [6]hop
		})
		b.hops, conn = b.buf[:0], &b.Conn
	case n <= 8:
		b := new(struct {
			Conn
			buf [8]hop
		})
		b.hops, conn = b.buf[:0], &b.Conn
	default:
		conn = new(Conn)
	}
	conn.hops = append(conn.hops, hops...)
	return conn
}

// hopError is a prepare failure at one arbitration point of a path.
// Refusals are routine under churn — two attempts in five meet a busy
// hop — so the error carries its operands and renders its text only
// when someone asks for it.  errors.Is matches the cause.
type hopError struct {
	cause error // ErrHopDown, ErrHopBusy, ErrOverBudget, or what Reserve returned
	hop   int   // 1-based position on the path
	of    int   // path length
	id    PortID

	reserved, weight, budget int // the operands of the budget test
}

func (e *hopError) Error() string {
	switch e.cause {
	case ErrHopDown, ErrHopBusy:
		return fmt.Sprintf("admission: hop %d/%d (%v): %v", e.hop, e.of, e.id, e.cause)
	case ErrOverBudget:
		return fmt.Sprintf("admission: hop %d/%d %v (%d + %d > %d)",
			e.hop, e.of, e.cause, e.reserved, e.weight, e.budget)
	}
	return fmt.Sprintf("admission: hop %d/%d: %v", e.hop, e.of, e.cause)
}

func (e *hopError) Unwrap() error { return e.cause }

// Controller admits and releases connections against a topology's
// arbitration tables.
type Controller struct {
	topo   *topology.Topology
	routes *routing.Routes
	maping sl.Mapping
	ports  *Ports

	// Budget caps the reservable weight per port, keeping the paper's
	// 20 % of bandwidth free for best-effort traffic.
	Budget int

	// WireFactor inflates requested payload bandwidth to wire
	// bandwidth (payload+header)/payload so that reservations cover
	// packet header overhead.  1.0 reserves payload rate only.
	WireFactor float64

	// PacketWire is the wire size (payload + headers) used in deadline
	// computation: the whole-packet rounding rule lets every table
	// entry overdraw its allowance by one packet.
	PacketWire int

	// Distances optionally overrides the placement distance per SL.
	// When service levels share a virtual lane (collapsed mappings),
	// the group must adopt its most restrictive distance; nil keeps
	// each SL's own.  The connection's deadline is still derived from
	// the distance its service level asked for — a stricter placement
	// only over-delivers.
	Distances map[uint8]int

	nextID int
	// live is the ledger of admitted connections, each at its slot;
	// Release swaps the last one into the slot it vacates.
	live []*Conn

	// Scratch of the Admit in progress, kept across calls: the route,
	// its hops and each hop's decision.  A refused request allocates
	// none of them.
	path    []routing.Hop
	held    []hop
	decided []core.Decision

	// prog delivers committed deltas to the data plane; nil, the
	// default, applies them synchronously (free reconfiguration).
	prog Programmer

	// Down, when set, reports whether a port is quarantined by the
	// control plane's audit path (unreachable over the management
	// network).  Admissions crossing a down hop fail fast with
	// ErrHopDown instead of reserving weight the data plane would never
	// learn about.  Nil means no hop is ever down.
	Down func(PortID) bool

	// DeadHop, when set, reports whether a port belongs to a failed
	// topology element (crashed switch, severed link).  Releases of
	// connections that crossed it skip programming the dead port — its
	// data plane no longer exists — while still freeing the shadow
	// reservation so the controller's accounting stays exact.  New
	// admissions never route through dead elements (the repaired route
	// set avoids them), so only Release consults this.
	DeadHop func(PortID) bool
}

// NewController returns a controller over the given network state.
func NewController(topo *topology.Topology, routes *routing.Routes, mapping sl.Mapping, ports *Ports) *Controller {
	return &Controller{
		topo:       topo,
		routes:     routes,
		maping:     mapping,
		ports:      ports,
		Budget:     sl.MaxReservableWeight,
		WireFactor: 1.0,
		PacketWire: 4096 + sl.HeaderBytes, // conservative: largest IBA MTU
	}
}

// SetProgrammer replaces the delta programmer (nil restores the
// synchronous default).  Use subnet.NewInbandProgrammer to make
// reconfiguration cost simulated MAD traffic instead of being free.
func (c *Controller) SetProgrammer(p Programmer) { c.prog = p }

// SetRoutes swaps the forwarding tables the controller paths requests
// over.  The failure-recovery subsystem calls this when a repaired
// route set activates; connections admitted earlier keep the hop list
// they were admitted with, so releases still free the reservations on
// the old path.
func (c *Controller) SetRoutes(r *routing.Routes) { c.routes = r }

// Sites returns the arbitration points a live connection reserved, in
// path order.  Failure recovery compares them against the repaired
// route set to find displaced connections.
func (conn *Conn) Sites() []PortID {
	ids := make([]PortID, len(conn.hops))
	for i := range conn.hops {
		ids[i] = conn.hops[i].id()
	}
	return ids
}

// Ports exposes the port tables (the fabric simulator wires its
// arbiters to them).
func (c *Controller) Ports() *Ports { return c.ports }

// Live returns the number of admitted connections.
func (c *Controller) Live() int { return len(c.live) }

// site resolves one arbitration point of a path from src: the source
// host interface, or a switch's output port.
func (c *Controller) site(src int, h routing.Hop) (PortID, *core.PortTable) {
	if h.Switch < 0 {
		return HostPortID(src), c.ports.Host[src]
	}
	return SwitchPortID(h.Switch, h.Port), c.ports.Switch[h.Switch][h.Port]
}

// Admit runs the two-phase admission transaction: every arbitration
// point on the path is asked, read-only, whether it can take the
// reservation; only when all of them can does each prepare it on its
// shadow table, and the resulting table deltas are committed to the
// data plane through the controller's Programmer.  A refused request
// leaves every table untouched.  A hop whose previous delta is still in
// flight refuses with an error wrapping ErrHopBusy.
func (c *Controller) Admit(req traffic.Request) (*Conn, error) {
	if err := req.Validate(c.topo.NumHosts()); err != nil {
		return nil, err
	}
	weight := sl.WeightForBandwidth(req.Mbps * c.WireFactor)
	base := c.maping.VLFor(req.Level.SL)
	distance := req.Level.Distance
	if d, ok := c.Distances[req.Level.SL]; ok {
		distance = d
	}
	// The arbitration points in path order — the source host interface,
	// then each switch's output port (the last one being the destination
	// host port) — each with the wire VL the reservation lands on there.
	path, err := c.routes.AppendPathHops(c.path[:0], req.Src, req.Dst, base)
	if err != nil {
		return nil, err
	}
	c.path = path

	// Phase 1: decide.  Routes visit every site once, so each hop is a
	// distinct table and no hop's answer depends on a reservation at
	// another: the checks run read-only in path order, and the first
	// refusal returns with nothing written.
	c.held, c.decided = c.held[:0], c.decided[:0]
	for i, h := range path {
		id, tb := c.site(req.Src, h)
		var cause error
		reserved := tb.ReservedWeight()
		switch {
		case c.Down != nil && c.Down(id):
			cause = ErrHopDown
		case tb.Programming():
			cause = ErrHopBusy
		case reserved+weight > c.Budget:
			cause = ErrOverBudget
		default:
			d, err := tb.Decide(h.WireVL, distance, weight)
			if err == nil {
				c.held = append(c.held, newHop(id, tb))
				c.decided = append(c.decided, d)
				continue
			}
			cause = err
		}
		return nil, &hopError{cause: cause, hop: i + 1, of: len(path), id: id,
			reserved: reserved, weight: weight, budget: c.Budget}
	}

	// Phase 2: prepare on the shadow tables what every hop decided.
	for i := range c.held {
		c.held[i].res = c.held[i].table.Prepare(c.decided[i])
	}

	conn := newConn(c.held)
	conn.ID = c.nextID
	conn.Req = req
	conn.Weight = weight
	conn.Hops = len(path)
	conn.Deadline = int64(conn.Hops) * sl.HopDeadlineByteTimes(req.Level.Distance, c.PacketWire)

	// Phase 3: commit — emit one delta per hop to the data plane.
	for i := range conn.hops {
		h := &conn.hops[i]
		c.commitHop(h.id(), h.table)
	}
	c.nextID++
	c.track(conn)
	return conn, nil
}

// track enters an admitted connection in the live ledger.
func (c *Controller) track(conn *Conn) {
	conn.slot = len(c.live)
	c.live = append(c.live, conn)
}

// commitHop programs a hop's shadow table into its data plane: at once
// without a programmer, else as a delta of the changed blocks handed to
// it.  A port already mid-reprogram is left alone: its in-flight
// programmer observes the still-dirty shadow when the current delta
// lands and chains the next transaction itself.
func (c *Controller) commitHop(id PortID, tb *core.PortTable) {
	if c.prog == nil {
		tb.Apply()
		return
	}
	if tb.Programming() {
		return
	}
	d, err := tb.BeginProgram()
	if err != nil || len(d.Blocks()) == 0 {
		return
	}
	if err := c.prog.Program(id, tb, d); err != nil {
		// The shadow reservation is in place but the data plane refused
		// the delta; this is a protocol bug, not a recoverable
		// condition.
		panic(fmt.Sprintf("admission: committing %v: %v", id, err))
	}
}

// Release tears down an admitted connection as a committed
// transaction: its weight is deducted from every hop's shadow table
// (entries whose accumulated weight reaches zero are freed and the
// shadow defragmented), then each hop's delta is programmed to the
// data plane.
func (c *Controller) Release(conn *Conn) error {
	slot := conn.slot
	if slot >= len(c.live) || c.live[slot] != conn {
		return fmt.Errorf("admission: connection %d not live", conn.ID)
	}
	for i := range conn.hops {
		h := &conn.hops[i]
		if err := h.table.Release(h.res); err != nil {
			return fmt.Errorf("admission: releasing connection %d: %w", conn.ID, err)
		}
	}
	for i := range conn.hops {
		h := &conn.hops[i]
		if c.dead(h.id()) {
			continue // shadow freed above; no data plane left to program
		}
		c.commitHop(h.id(), h.table)
	}
	last := c.live[len(c.live)-1]
	c.live[slot], last.slot = last, slot
	c.live[len(c.live)-1] = nil
	c.live = c.live[:len(c.live)-1]
	return nil
}

// ReprogramStale pushes the pending shadow-vs-active delta of every
// live, idle port to the data plane.  Releases that crossed a dead
// port skip its programming (the data plane was gone), so a port
// returning to service can hold a stale active table with nothing
// scheduled to heal it; the failure-recovery subsystem calls this
// after every activation.  Ports with agreeing tables or an in-flight
// program are untouched, so the call is idempotent.
func (c *Controller) ReprogramStale() {
	c.ports.Each(func(id PortID, tb *core.PortTable) {
		if !c.dead(id) {
			c.commitHop(id, tb)
		}
	})
}

// dead reports whether a port belongs to a failed topology element.
func (c *Controller) dead(id PortID) bool { return c.DeadHop != nil && c.DeadHop(id) }

// FillResult summarizes a Fill run.
type FillResult struct {
	Admitted []*Conn
	Attempts int
	Rejected int
}

// Fill draws requests from the source and admits them until
// maxAttempts requests have been offered or maxConsecutiveRejects in a
// row fail (the paper establishes connections "until no more can be
// established"); a caller without an attempt cap passes math.MaxInt.
// It returns the admitted connections in admission order.
func (c *Controller) Fill(src *traffic.Source, maxAttempts, maxConsecutiveRejects int) FillResult {
	var res FillResult
	for consecutive := 0; res.Attempts < maxAttempts && consecutive < maxConsecutiveRejects; {
		res.Attempts++
		conn, err := c.Admit(src.Next())
		if err != nil {
			res.Rejected++
			consecutive++
			continue
		}
		consecutive = 0
		res.Admitted = append(res.Admitted, conn)
	}
	return res
}

// MaxLoadFactor bounds the offered-load factor FillLoad accepts; beyond
// it the fill would spin on astronomically many attempts for a fabric
// that is pinned at saturation anyway.
const MaxLoadFactor = 1e6

// FillLoad offers the QoS connections of an offered-load factor: up to
// max(1, ceil(load·hosts)) requests from the seed+1 source over the
// default service levels (load < 1 underfills the fabric, load > 1
// pushes into rejection), stopping early after maxConsecutiveRejects
// refusals in a row.  Equal (topology, load, seed) admit the same
// connections into the same tables, which is what lets the planner
// model exactly the connection set the simulator runs.  A load outside
// (0, MaxLoadFactor], NaN included, or a fill that admits nothing, is
// an error.
func (c *Controller) FillLoad(load float64, seed int64, maxConsecutiveRejects int) (FillResult, error) {
	if !(load > 0 && load <= MaxLoadFactor) {
		return FillResult{}, fmt.Errorf("admission: offered load factor %g out of range (need 0 < load <= %g)", load, MaxLoadFactor)
	}
	hosts := c.topo.NumHosts()
	attempts := max(1, int(math.Ceil(load*float64(hosts))))
	res := c.Fill(traffic.NewSource(sl.DefaultLevels, hosts, seed+1), attempts, maxConsecutiveRejects)
	if len(res.Admitted) == 0 {
		return res, fmt.Errorf("admission: load %g admitted no connections in %d attempts", load, res.Attempts)
	}
	return res, nil
}

// MeanHostReservation returns the average reserved bandwidth (Mbps)
// over host interfaces, one of the Table 2 rows.
func (c *Controller) MeanHostReservation() float64 {
	if len(c.ports.Host) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range c.ports.Host {
		sum += sl.BandwidthForWeight(p.ReservedWeight())
	}
	return sum / float64(len(c.ports.Host))
}

// MeanSwitchPortReservation returns the average reserved bandwidth
// (Mbps) over inter-switch ports that are actually wired.
func (c *Controller) MeanSwitchPortReservation() float64 {
	sum, n := 0.0, 0
	c.ports.Each(func(id PortID, p *core.PortTable) {
		if id.Switch >= 0 && c.topo.Peer(id.Switch, id.Port).Switch >= 0 { // not a host port, not unwired
			sum += sl.BandwidthForWeight(p.ReservedWeight())
			n++
		}
	})
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// CheckInvariants verifies every port table (core.PortTable.CheckInvariants:
// the allocator, the paper's theorem and distance bound, the
// changed-block mask, the open transaction) and the controller's
// ledger: every live connection sits at its own slot, and each port's
// reserved weight is the sum of the live connections' reservations
// there, so a reservation no connection owns is caught.  An error names
// the port.
func (c *Controller) CheckInvariants() error {
	held := make(map[*core.PortTable]int)
	for i, conn := range c.live {
		if conn.slot != i {
			return fmt.Errorf("admission: connection %d at ledger slot %d says it is at %d", conn.ID, i, conn.slot)
		}
		for _, h := range conn.hops {
			held[h.table] += h.res.Weight
		}
	}
	var err error
	c.ports.Each(func(id PortID, tb *core.PortTable) {
		if err != nil {
			return
		}
		if e := tb.CheckInvariants(); e != nil {
			err = fmt.Errorf("%v: %w", id, e)
		} else if got := tb.ReservedWeight(); got != held[tb] {
			err = fmt.Errorf("%v: reserved weight %d, live connections hold %d", id, got, held[tb])
		}
	})
	return err
}

// CheckConverged verifies that the controller has settled: no
// connection is live, and every port that is neither quarantined
// (Down) nor dead (DeadHop) has no program in flight and an active
// table equal to its shadow.  The lifecycle drivers call it at the end
// of a run, after every release has completed.
func (c *Controller) CheckConverged() error {
	if n := len(c.live); n != 0 {
		return fmt.Errorf("admission: %d connections still live", n)
	}
	var err error
	c.ports.Each(func(id PortID, tb *core.PortTable) {
		down := c.Down != nil && c.Down(id)
		if err == nil && !down && !c.dead(id) && (tb.Programming() || tb.Dirty()) {
			err = fmt.Errorf("admission: %v not converged (programming %v, active != shadow %v)",
				id, tb.Programming(), tb.Dirty())
		}
	})
	return err
}
