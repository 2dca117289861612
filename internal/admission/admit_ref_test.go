package admission

import (
	"fmt"

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
				h := newHop(id, tb)
				h.res = res
				c.held = append(c.held, h)
				continue
			}
			cause = err
		}
		c.abort()
		return nil, &hopError{cause: cause, hop: i + 1, of: len(path), id: id,
			reserved: reserved, weight: weight, budget: c.Budget}
	}

	conn := newConn(c.held)
	conn.ID = c.nextID
	conn.Req = req
	conn.Weight = weight
	conn.Hops = len(path)
	conn.Deadline = int64(conn.Hops) * sl.HopDeadlineByteTimes(req.Level.Distance, c.PacketWire)
	for i := range conn.hops {
		c.commitHop(conn.hops[i].id(), conn.hops[i].table)
	}
	c.nextID++
	c.track(conn)
	return conn, nil
}

// abort rolls back the hops reserved so far for a failed prepare, in
// reverse order of acquisition, and re-checks every touched hop's
// invariants (core.PortTable.CheckInvariants).  Rollback never
// defragments, so each shadow table is restored byte-identically to its
// pre-Admit state.
func (c *Controller) abort() {
	for i := len(c.held) - 1; i >= 0; i-- {
		h := c.held[i]
		// Rollback cannot fail for reservations we just made.
		if err := h.table.Rollback(h.res); err != nil {
			panic(fmt.Sprintf("admission: rollback at %v failed: %v", h.id(), err))
		}
		if err := h.table.CheckInvariants(); err != nil {
			panic(fmt.Sprintf("admission: invariants broken after rollback at %v: %v", h.id(), err))
		}
	}
	c.held = c.held[:0]
}
