package core

import (
	"fmt"

	"repro/internal/arbtable"
)

// Reservation records one connection's hold on a port's arbitration
// table: the sequence it shares and the weight it contributed.  It is
// the token needed to release the resources when the connection ends.
// It also carries the sequence's record, so that a release finds the
// sequence without a search; a token whose record has since been freed
// or reused (checked by owner and ID) falls back to searching by Seq.
type Reservation struct {
	Seq    SeqID
	Weight int
	seq    *Sequence
}

// Decision is a request a port table has decided to take, read-only:
// the live sequence it joins, or the start offset of the fresh sequence
// it places.  Prepare carries it out.
type Decision struct {
	join   *Sequence // nil for a fresh placement
	id     SeqID     // join's ID, checked when the decision is carried out
	vl     uint8
	stride int // of the fresh placement; 0 in the zero Decision
	start  int
	weight int
}

// PortTable couples an Allocator with the sequence-sharing policy of
// the paper, and splits the port's arbitration state into a control
// plane and a data plane:
//
//   - The shadow table (the table passed to NewPortTable, or carved by
//     NewPortTables; owned by the allocator) is the control-plane view.
//     Reserve, Release and defragmentation mutate it immediately and
//     cheaply.
//   - The active table (Active) is the data-plane view the port's
//     arbiter schedules from.  It changes only through whole-version
//     Swap calls, so the arbiter never observes a half-written table.
//
// Apply swaps the shadow in at once, as a synchronous control plane
// does.  BeginProgram diffs shadow against active into a Delta of
// changed 16-entry blocks for a programmer that sends them; DeliverBlock
// stages arriving blocks and swaps the active table exactly when a
// complete new-version set is present.
// Connections of the same service level (same VL, same distance)
// accumulate their weights on one sequence while it has spare
// capacity, and only when it fills up is a new sequence allocated;
// this lets the number of accepted connections be bounded by available
// bandwidth rather than by the 64 table slots.
type PortTable struct {
	alloc  *Allocator
	active *arbtable.Table

	// onSwap, when set, is called with code after every swap of the
	// active table (see OnSwap).  The code shares a word with the
	// transaction's small fields.
	onSwap func(code int32)
	code   int32

	// In-flight programming transaction (at most one per port).  delta
	// is its block mask, zero when none is open.  staged holds the
	// blocks arrived so far, and mismatch records that one of them
	// differs from the same block of the target; both are reset by
	// BeginProgram and read only while delta is set.  txn is the rest of
	// the transaction, taken from pool by BeginProgram and given back
	// when the transaction closes: nil exactly while delta is zero, so a
	// port that is never programmed in-band holds no staging at all.
	delta    uint8
	staged   uint8
	mismatch bool
	txn      *staging
	pool     *stagingPool

	stats ReconfigStats
}

// ReconfigStats counts control-plane activity at one port (or, summed,
// across a fabric).
type ReconfigStats struct {
	Programs   int64 `json:"programs"`   // BeginProgram transactions opened
	Blocks     int64 `json:"blocks"`     // table blocks delivered
	Swaps      int64 `json:"swaps"`      // complete new versions applied
	TornAborts int64 `json:"tornAborts"` // partial/duplicate/mixed-version sets rejected
	StalePicks int64 `json:"stalePicks"` // packets scheduled while a program was in flight
}

// Add accumulates o into s.
func (s *ReconfigStats) Add(o ReconfigStats) {
	s.Programs += o.Programs
	s.Blocks += o.Blocks
	s.Swaps += o.Swaps
	s.TornAborts += o.TornAborts
	s.StalePicks += o.StalePicks
}

// NewPortTable returns a PortTable whose control plane manages t.  The
// active (data-plane) table starts as a copy of t; arbiters must read
// it via Active.
func NewPortTable(t *arbtable.Table) *PortTable {
	return NewPortTableWithPolicy(t, BitReversal)
}

// NewPortTableWithPolicy returns a PortTable whose allocator uses an
// alternative placement policy; used by the ablations' differential
// tests.  The port table, its allocator, its active table and its
// one-port staging free list are one object: the one-element case of
// NewPortTables, with the caller's shadow table.
func NewPortTableWithPolicy(t *arbtable.Table, p Policy) *PortTable {
	s := new(struct {
		portSlot
		pool stagingPool
	})
	s.init(t, p, append([]arbtable.Entry(nil), t.Low...), &s.pool)
	return &s.pt
}

// NewPortTables returns n empty port tables with the paper's
// bit-reversal policy, carved from per-call slabs instead of allocated
// one by one: each port's PortTable, allocator and active table lie
// together in one slab, the shadow tables in a second, and both low
// lists of every port — each a copy of low — in a third.  Every low
// list is a full slice expression capped at len(low), so an append to
// one port's list reallocates it instead of writing into its
// neighbour's.  The tables have LimitOfHighPriority limit.  They share
// one free list of transaction staging records, which holds as many as
// were ever open at once: none for tables that are only Applied.
func NewPortTables(n int, limit uint8, low []arbtable.Entry) []*PortTable {
	pool := new(stagingPool)
	slots := make([]portSlot, n)
	shadows := make([]arbtable.Table, n)
	lows := make([]arbtable.Entry, 2*n*len(low))
	out := make([]*PortTable, n)
	carve := func() []arbtable.Entry {
		if len(low) == 0 {
			return nil
		}
		l := lows[:len(low):len(low)]
		lows = lows[len(low):]
		copy(l, low)
		return l
	}
	for i := range slots {
		sh := &shadows[i]
		sh.Limit, sh.Low = limit, carve()
		slots[i].init(sh, BitReversal, carve(), pool)
		out[i] = &slots[i].pt
	}
	return out
}

// portSlot is the storage of one port table besides its shadow: the
// PortTable, its allocator and its active table, laid out together.
type portSlot struct {
	pt     PortTable
	alloc  Allocator
	active arbtable.Table
}

// init makes the slot a port table over shadow with the given policy,
// taking its transaction staging from pool.  The active table starts as
// a copy of shadow's high table and limit, with activeLow — which must
// hold a copy of shadow's low list — as its low list.
func (s *portSlot) init(shadow *arbtable.Table, p Policy, activeLow []arbtable.Entry, pool *stagingPool) {
	s.alloc = Allocator{table: shadow, policy: p, nextID: 1}
	s.active = arbtable.Table{High: shadow.High, Low: activeLow, Limit: shadow.Limit}
	s.pt.alloc, s.pt.active, s.pt.pool = &s.alloc, &s.active, pool
}

// Allocator exposes the underlying allocator (read-mostly: inspection,
// invariant checks).  Its table is the shadow, control-plane view.
func (p *PortTable) Allocator() *Allocator { return p.alloc }

// Active returns the data-plane table the port's arbiter schedules
// from.  It changes only via versioned swaps.
func (p *PortTable) Active() *arbtable.Table { return p.active }

// SetLow installs the low-priority entry list on both the shadow and
// the active table.  The low table is outside the paper's fill-in
// algorithm (slot positions carry no latency meaning), so it is
// programmed directly rather than through versioned deltas.
func (p *PortTable) SetLow(entries []arbtable.Entry) {
	p.alloc.Table().Low = append([]arbtable.Entry(nil), entries...)
	p.active.Low = append([]arbtable.Entry(nil), entries...)
}

// Reserve admits one connection with the given VL, maximum distance
// and weight on the shadow table.  It first tries to join an existing
// sequence of the same VL whose stride honors the distance and whose
// spare capacity covers the weight; otherwise it allocates a new
// sequence.  On failure the table is unchanged.  The active table is
// untouched until the change is programmed (Apply, or BeginProgram +
// DeliverBlock through an admission.Programmer).  It is Decide, then
// Prepare.
func (p *PortTable) Reserve(vl uint8, distance, weight int) (Reservation, error) {
	d, err := p.Decide(vl, distance, weight)
	if err != nil {
		return Reservation{}, err
	}
	return p.Prepare(d), nil
}

// Decide answers a request without changing anything: the sequence it
// would join (the join scan), else where a fresh sequence would go (the
// policy's scan), else the error Reserve returns.  The Decision stays
// valid until the shadow table next changes; admission decides at every
// hop of a path before it prepares at any, and no path crosses a port
// twice.
func (p *PortTable) Decide(vl uint8, distance, weight int) (Decision, error) {
	stride, _, err := Shape(distance, weight)
	if err != nil {
		return Decision{}, err
	}
	if s := p.joinable(vl, distance, weight); s != nil {
		return Decision{join: s, id: s.ID, weight: weight}, nil
	}
	if vl >= arbtable.NumDataVLs {
		return Decision{}, errNotDataVL(vl)
	}
	start, err := p.alloc.fit(stride)
	if err != nil {
		return Decision{}, err
	}
	return Decision{vl: vl, stride: stride, start: start, weight: weight}, nil
}

// Prepare carries out a Decision on the shadow table: the weight joins
// the decided sequence, or a fresh sequence is placed at the decided
// start.  The Decision must come from Decide on this port with nothing
// changed since; a stale or foreign one panics rather than corrupt the
// table.
func (p *PortTable) Prepare(d Decision) Reservation {
	a := p.alloc
	s := d.join
	switch {
	case s != nil:
		if s.owner != a || s.ID != d.id {
			panic(fmt.Sprintf("core: Prepare joins sequence %d, which is not live here", d.id))
		}
		if err := a.addWeight(s, d.weight); err != nil {
			panic(fmt.Sprintf("core: Prepare of a stale decision: %v", err))
		}
	case d.stride == 0 || a.occ&setMask(d.stride, d.start) != 0:
		panic(fmt.Sprintf("core: Prepare places stride %d at %d, which is not free", d.stride, d.start))
	default:
		s = a.add(d.vl, d.stride, d.start, d.weight)
	}
	return Reservation{Seq: s.ID, Weight: d.weight, seq: s}
}

// joinable returns the sequence a well-formed request joins, or nil.
// Sharing is deterministic: the live sequence of the VL with the lowest
// ID that fits.  Sequences of the same VL always come from the same
// service level, but the stride check keeps the latency guarantee
// explicit.
func (p *PortTable) joinable(vl uint8, distance, weight int) *Sequence {
	for _, s := range p.alloc.SequencesForVL(vl) {
		if s.Stride <= distance && s.Spare() >= weight {
			return s
		}
	}
	return nil
}

// Release returns a reservation's weight to the shadow table.  When
// the owning sequence's accumulated weight reaches zero its slots are
// freed and the table defragmented.
func (p *PortTable) Release(r Reservation) error {
	return p.remove(r, p.alloc.policy.Defrag)
}

// Rollback undoes a reservation made earlier in a failed transaction.
// Unlike Release it never defragments, so the shadow table is restored
// byte-identically to its pre-Reserve state (a just-added sequence
// vanishes; a joined sequence just loses the added weight) and no
// unrelated sequence moves.  The allocation theorem still holds
// afterwards because the pre-reservation state satisfied it.
func (p *PortTable) Rollback(r Reservation) error {
	return p.remove(r, false)
}

// remove deducts a reservation's weight from the sequence its token
// names.
func (p *PortTable) remove(r Reservation, defrag bool) error {
	s := p.alloc.held(r)
	if s == nil {
		return ErrUnknownSeq
	}
	_, err := p.alloc.removeWeight(s, r.Weight, defrag)
	return err
}

// ReservedWeight returns the total weight currently reserved.
func (p *PortTable) ReservedWeight() int { return p.alloc.TotalWeight() }

// Stats returns the port's reconfiguration counters.
func (p *PortTable) Stats() ReconfigStats { return p.stats }

// NoteStalePick records that the arbiter scheduled a packet while a
// program was in flight — the packet ran under a stale epoch.
func (p *PortTable) NoteStalePick() { p.stats.StalePicks++ }
