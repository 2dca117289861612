package admission

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sl"
	"repro/internal/traffic"
)

// refAdmit is Admit as it stood before the read-only decide pass: each
// hop reserves in turn, and the first refusal rolls back every hop
// reserved before it (abort).  It is kept as the reference
// TestAdmitDecideDifferential drives in lock-step with Admit.  Unlike
// Admit it spends the SeqID of every sequence it places and then rolls
// back, so the two agree on table bytes and on the relative order of
// IDs, not on the IDs themselves.
func (c *Controller) refAdmit(req traffic.Request) (*Conn, error) {
	if err := req.Validate(c.topo.NumHosts()); err != nil {
		return nil, err
	}
	weight := sl.WeightForBandwidth(req.Mbps * c.WireFactor)
	base := c.maping.VLFor(req.Level.SL)
	distance := req.Level.Distance
	if d, ok := c.Distances[req.Level.SL]; ok {
		distance = d
	}
	path, err := c.routes.AppendPathHops(c.path[:0], req.Src, req.Dst, base)
	if err != nil {
		return nil, err
	}
	c.path = path

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
		default:
			res, err := tb.Reserve(h.WireVL, distance, weight)
			if err == nil {
				c.held = append(c.held, hop{hold: res.Hold, port: packPort(id)})
				continue
			}
			cause = err
		}
		c.abort(weight)
		return nil, newHopError(cause, i, len(path), id, reserved, weight, c.Budget)
	}

	conn := newConn(c.held)
	conn.ID = c.nextID
	conn.Req = req
	conn.Weight = weight
	conn.Deadline = int64(len(path)) * sl.HopDeadlineByteTimes(req.Level.Distance, c.PacketWire)
	for _, h := range conn.hops {
		c.commitHop(h.id(), c.table(h.port))
	}
	c.nextID++
	c.track(conn)
	return conn, nil
}

// abort rolls back the hops reserved so far, each of the given weight,
// for a failed prepare, in reverse order of acquisition, and re-checks
// every touched hop's invariants (core.PortTable.CheckInvariants).
// Release never relocates, so each shadow table is restored
// byte-identically to its pre-Admit state unless its reservation
// relocated the table (see admitDiff.admit).
func (c *Controller) abort(weight int) {
	for i := len(c.held) - 1; i >= 0; i-- {
		h := c.held[i]
		tb := c.table(h.port)
		// Release cannot fail for reservations we just made.
		if err := tb.Release(core.Reservation{Hold: h.hold, Weight: weight}); err != nil {
			panic(fmt.Sprintf("admission: rollback at %v failed: %v", h.id(), err))
		}
		if err := tb.CheckInvariants(); err != nil {
			panic(fmt.Sprintf("admission: invariants broken after rollback at %v: %v", h.id(), err))
		}
	}
	c.held = c.held[:0]
}
