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
//     written.
//   - Prepare: every hop reserves the weight on its shadow
//     (control-plane) table.
//   - Abort: should a prepare fail after its hop said yes — a bug — the
//     hops already reserved are rolled back in reverse order of
//     acquisition, without defragmentation, restoring each shadow table
//     byte-identically; invariants are re-checked at every rolled-back
//     hop.
//   - Commit: on success each hop's shadow table is programmed into its
//     data plane.  With no Programmer set, the default, that is one swap
//     at every hop (core.PortTable.Apply).  With one, each hop's
//     shadow/active difference becomes a Delta of changed 16-entry blocks
//     that the Programmer delivers — as simulated SMPs with MAD latency,
//     in subnet.InbandProgrammer.
package admission

import (
	"errors"
	"fmt"

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

// NewPorts builds empty tables for every output port of the topology.
// All tables use an unlimited high-priority allowance except where the
// caller overrides Limit afterwards.
func NewPorts(topo *topology.Topology, limit uint8) *Ports {
	p := &Ports{
		Host:   make([]*core.PortTable, topo.NumHosts()),
		Switch: make([][]*core.PortTable, topo.NumSwitches),
	}
	for h := range p.Host {
		p.Host[h] = core.NewPortTable(arbtable.New(limit))
	}
	for s := range p.Switch {
		p.Switch[s] = make([]*core.PortTable, topo.Ports())
		for q := range p.Switch[s] {
			p.Switch[s][q] = core.NewPortTable(arbtable.New(limit))
		}
	}
	return p
}

// hop identifies one arbitration point on a path.
type hop struct {
	id    PortID
	table *core.PortTable
	res   core.Reservation
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
	live   map[int]*Conn

	// Scratch of the Admit in progress, kept across calls: the route and
	// its hops.  A refused request allocates neither.
	path []routing.Hop
	held []hop

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
		live:       make(map[int]*Conn),
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
	for i, h := range conn.hops {
		ids[i] = h.id
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
	c.held = c.held[:0]
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
		case !tb.CanReserve(h.WireVL, distance, weight):
			// Reserve names the refusal, and writes nothing when it fails.
			if _, cause = tb.Reserve(h.WireVL, distance, weight); cause == nil {
				panic(fmt.Sprintf("admission: %v reserved what CanReserve refused", id))
			}
		default:
			c.held = append(c.held, hop{id: id, table: tb})
			continue
		}
		return nil, &hopError{cause: cause, hop: i + 1, of: len(path), id: id,
			reserved: reserved, weight: weight, budget: c.Budget}
	}

	// Phase 2: prepare on the shadow tables.  Every hop said yes, so a
	// refusal here is a bug; abort still restores the hops reserved.
	for i := range c.held {
		h := &c.held[i]
		res, err := h.table.Reserve(path[i].WireVL, distance, weight)
		if err != nil {
			c.held = c.held[:i]
			c.abort()
			return nil, &hopError{cause: err, hop: i + 1, of: len(path), id: h.id}
		}
		h.res = res
	}

	conn := newConn(c.held)
	conn.ID = c.nextID
	conn.Req = req
	conn.Weight = weight
	conn.Hops = len(path)
	conn.Deadline = int64(conn.Hops) * sl.HopDeadlineByteTimes(req.Level.Distance, c.PacketWire)

	// Phase 3: commit — emit one delta per hop to the data plane.
	for _, h := range conn.hops {
		c.commitHop(h.id, h.table)
	}
	c.nextID++
	c.live[conn.ID] = conn
	return conn, nil
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

// abort rolls back the hops reserved so far for a failed prepare, in
// reverse order of acquisition, and re-checks every touched hop's
// allocator invariants.  Rollback never defragments, so each shadow
// table is restored byte-identically to its pre-Admit state.
func (c *Controller) abort() {
	for i := len(c.held) - 1; i >= 0; i-- {
		h := c.held[i]
		// Rollback cannot fail for reservations we just made.
		if err := h.table.Rollback(h.res); err != nil {
			panic(fmt.Sprintf("admission: rollback at %v failed: %v", h.id, err))
		}
		if err := h.table.Allocator().CheckInvariants(); err != nil {
			panic(fmt.Sprintf("admission: invariants broken after rollback at %v: %v", h.id, err))
		}
	}
	c.held = c.held[:0]
}

// Release tears down an admitted connection as a committed
// transaction: its weight is deducted from every hop's shadow table
// (entries whose accumulated weight reaches zero are freed and the
// shadow defragmented), then each hop's delta is programmed to the
// data plane.
func (c *Controller) Release(conn *Conn) error {
	if _, ok := c.live[conn.ID]; !ok {
		return fmt.Errorf("admission: connection %d not live", conn.ID)
	}
	for _, h := range conn.hops {
		if err := h.table.Release(h.res); err != nil {
			return fmt.Errorf("admission: releasing connection %d: %w", conn.ID, err)
		}
	}
	for _, h := range conn.hops {
		if c.DeadHop != nil && c.DeadHop(h.id) {
			continue // shadow freed above; no data plane left to program
		}
		c.commitHop(h.id, h.table)
	}
	delete(c.live, conn.ID)
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
	skip := func(id PortID) bool { return c.DeadHop != nil && c.DeadHop(id) }
	for h, tb := range c.ports.Host {
		if id := HostPortID(h); !skip(id) {
			c.commitHop(id, tb)
		}
	}
	for s, row := range c.ports.Switch {
		for q, tb := range row {
			if id := SwitchPortID(s, q); !skip(id) {
				c.commitHop(id, tb)
			}
		}
	}
}

// FillResult summarizes a Fill run.
type FillResult struct {
	Admitted []*Conn
	Attempts int
	Rejected int
}

// Fill draws requests from the source and admits them until
// maxConsecutiveRejects requests in a row fail (the paper establishes
// connections "until no more can be established").  It returns the
// admitted connections in admission order.
func (c *Controller) Fill(src *traffic.Source, maxConsecutiveRejects int) FillResult {
	var res FillResult
	consecutive := 0
	for consecutive < maxConsecutiveRejects {
		req := src.Next()
		res.Attempts++
		conn, err := c.Admit(req)
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
	for s := range c.ports.Switch {
		for q, p := range c.ports.Switch[s] {
			if c.topo.Peer(s, q).Switch < 0 {
				continue // host port or unwired
			}
			sum += sl.BandwidthForWeight(p.ReservedWeight())
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// CheckInvariants verifies every port table's allocator invariants.
func (c *Controller) CheckInvariants() error {
	for h, p := range c.ports.Host {
		if err := p.Allocator().CheckInvariants(); err != nil {
			return fmt.Errorf("host %d: %w", h, err)
		}
	}
	for s := range c.ports.Switch {
		for q, p := range c.ports.Switch[s] {
			if err := p.Allocator().CheckInvariants(); err != nil {
				return fmt.Errorf("switch %d port %d: %w", s, q, err)
			}
		}
	}
	return nil
}
