package arbtable

import (
	"fmt"
	"math/bits"

	"repro/internal/metrics"
)

// Ready describes, for each data VL, the size in bytes of the packet at
// the head of that VL's queue, or zero when the VL has nothing eligible
// to send (no packet, or no downstream credit).  The caller is
// responsible for credit and crossbar eligibility; the arbiter only
// implements the table scheduling rules.
type Ready [NumDataVLs]int

// wrrState is the weighted round-robin position within one table: the
// current entry, the byte allowance it has left, and whether the
// position is live (false until the first packet is scheduled).  An
// allowance is at most one entry's weight in bytes (255 × WeightUnit)
// and falls at most one packet below zero, so 32 bits hold it.
type wrrState struct {
	idx      int32
	residual int32
	active   bool
}

// choice is a scheduling decision peeked from one table, to be either
// committed or discarded.
type choice struct {
	entry int  // entry index that serves
	vl    int  // its VL
	fresh bool // true when the entry is newly visited (allowance resets)
}

// Arbiter is the weighted round-robin scheduling engine of one output
// port.  It cycles through the high- and low-priority tables, tracking
// the byte allowance of the current entry in each and the number of
// high-priority bytes sent since the last low-priority opportunity.
//
// The zero Arbiter is not usable; construct with NewArbiter or Init.  An
// Arbiter is not safe for concurrent use; in the simulator each output
// port owns one and all events run on a single goroutine.
type Arbiter struct {
	table *Table

	// hiSlots is the table's HighSlotMasks as of epoch seen: the next
	// serving high entry is found on these words, not by walking High.
	hiSlots [NumDataVLs]uint64

	hi wrrState
	lo wrrState

	hiSinceLow int // high-priority bytes sent since a low-priority send

	// seen is the table epoch the arbiter last scheduled under; when
	// the table is swapped the next Pick re-anchors the high-table
	// round-robin state.
	seen      uint64
	reanchors int64

	// m, when non-nil, receives pick/scan/stall counters.  All ports
	// of one network share the same counter block.
	m *metrics.ArbCounters

	last LastPick
}

// LastPick describes the most recent successful Pick, for trace
// instrumentation: which table and entry served, and the byte
// allowance the entry has left.
type LastPick struct {
	High     bool
	Entry    int32
	Residual int32
}

// SetMetrics attaches (or, with nil, detaches) a counter block.  With
// no block attached the arbiter's only overhead is one nil check per
// pick.
func (a *Arbiter) SetMetrics(c *metrics.ArbCounters) { a.m = c }

// Last returns the most recent successful pick's table position.  It
// is only meaningful directly after a Pick that returned ok.
func (a *Arbiter) Last() LastPick { return a.last }

// NewArbiter returns an arbiter over t: Init on a fresh Arbiter.
func NewArbiter(t *Table) *Arbiter {
	a := new(Arbiter)
	a.Init(t)
	return a
}

// Init makes a, in place, a fresh arbiter over t, so that a fabric can
// carve all its arbiters from one slab.  The low table may be mutated
// in place between Pick calls (weights are re-read on every entry
// visit); high-table changes arrive through Table.Swap, which the
// arbiter observes at its next Pick — a packet boundary — and answers
// with a deterministic re-anchor of its round-robin state.  Writing
// t.High directly is only valid before this call: the arbiter indexes
// the high table here and again at every re-anchor, nowhere else.
func (a *Arbiter) Init(t *Table) {
	*a = Arbiter{table: t, hiSlots: t.highSlotMasks(), seen: t.Version()}
}

// CheckIndex verifies that the slot masks the arbiter schedules from
// still describe its table's high entries.  A mismatch means High was
// written directly while the arbiter was attached instead of going
// through Swap.  A swap the arbiter has not yet picked under is not a
// mismatch: the masks are rebuilt when it re-anchors.
func (a *Arbiter) CheckIndex() error {
	if a.table.Version() != a.seen {
		return nil
	}
	for vl, want := range a.table.highSlotMasks() {
		if got := a.hiSlots[vl]; got != want {
			return fmt.Errorf("arbtable: VL %d slot mask %#016x, high table has %#016x (written without Swap?)",
				vl, got, want)
		}
	}
	return nil
}

// Reanchors returns how many times a table swap forced the arbiter to
// re-anchor its high-priority round-robin state.
func (a *Arbiter) Reanchors() int64 { return a.reanchors }

// Pick selects the next VL to transmit given the per-VL eligible packet
// sizes, consumes the corresponding weight, and returns the chosen VL
// together with the table it was scheduled from (high = true for the
// high-priority table).  ok is false when nothing can be scheduled.
//
// Scheduling rules (IBA 1.0 section 7.6.9, as summarized in the paper):
//
//  1. High-priority entries are served in weighted round-robin order as
//     long as fewer than Limit*LimitUnit bytes have been sent since the
//     last low-priority packet, or no low-priority packet is pending.
//  2. When the high-priority allowance is exhausted and a low-priority
//     packet is pending, one low-priority packet is served and the
//     allowance resets.
//  3. If no high-priority packet is ready, low-priority packets may be
//     sent regardless of the allowance.
//  4. Weight is always rounded up to a whole packet: an entry with any
//     residual allowance may send one packet even if the packet is
//     larger than the residual.
//
// By rule 1 a high-table entry within the allowance serves whatever the
// low table holds, so the low table is scanned only when the high scan
// finds nothing or the allowance is used up.
func (a *Arbiter) Pick(ready *Ready) (vl int, high bool, ok bool) {
	if v := a.table.Version(); v != a.seen {
		// The control plane swapped in a new high table since the last
		// pick.  Re-anchor deterministically: keep the cursor position
		// (the scan resumes from the same slot, preserving rotational
		// fairness) but drop the residual allowance, which belonged to
		// an entry of the retired epoch.
		a.seen = v
		a.hi.active = false
		a.hi.residual = 0
		a.reanchors++
		a.hiSlots = a.table.highSlotMasks()
	}
	if n := len(a.table.Low); n > 0 && int(a.lo.idx) >= n {
		// The low table shrank since the last pick (dynamic low
		// tables): its scan restarts from the top, whether or not this
		// pick reads it.
		a.lo.idx, a.lo.active = 0, false
	}
	hiCh, visited, hiOK := a.peekHigh(ready)
	var loCh choice
	loOK := false
	if !hiOK || a.limitExceeded() {
		var loN int
		loCh, loN, loOK = peek(a.table.Low, &a.lo, ready)
		visited += loN
	}
	if m := a.m; m != nil {
		m.EntriesVisited += int64(visited)
	}

	switch {
	case hiOK && !loOK:
		size := ready[hiCh.vl]
		commit(a.table.High[:], &a.hi, hiCh, size)
		a.hiSinceLow += size
		a.last = LastPick{High: true, Entry: int32(hiCh.entry), Residual: a.hi.residual}
		if m := a.m; m != nil {
			m.Picks++
		}
		return hiCh.vl, true, true
	case loOK:
		size := ready[loCh.vl]
		commit(a.table.Low, &a.lo, loCh, size)
		a.hiSinceLow = 0
		a.last = LastPick{High: false, Entry: int32(loCh.entry), Residual: a.lo.residual}
		if m := a.m; m != nil {
			m.Picks++
		}
		return loCh.vl, false, true
	default:
		if m := a.m; m != nil {
			m.Stalls++
		}
		return -1, false, false
	}
}

// Stall counts a scheduling pass whose caller found nothing eligible and
// so does not call Pick: one stall, and the entries Pick on an empty
// Ready visits — the whole of both tables.  It leaves the round-robin
// state alone; a table swap it passes over is re-anchored by the next
// Pick, which leaves the state a re-anchor here would have.
func (a *Arbiter) Stall() {
	if m := a.m; m != nil {
		m.Stalls++
		m.EntriesVisited += int64(TableSize + len(a.table.Low))
	}
}

// limitExceeded reports whether the high-priority table has used up its
// LimitOfHighPriority allowance.
func (a *Arbiter) limitExceeded() bool {
	if a.table.Limit == UnlimitedHigh {
		return false
	}
	// Limit 0 still admits a single high-priority packet between
	// low-priority opportunities (IBA 1.0: a value of 0 indicates that
	// only one packet from the high-priority table may be sent before
	// an opportunity is given to the low-priority table).
	return a.hiSinceLow > 0 && a.hiSinceLow >= int(a.table.Limit)*LimitUnit
}

// hold is the rule both tables share before any scan: the current entry
// keeps the token while it has residual allowance and an eligible
// packet.  Otherwise it returns the slot the cyclic scan starts from:
// the one after the current entry, or, before the first pick (inactive
// state), the current slot itself so the table is honored from its
// beginning.
func (st *wrrState) hold(entries []Entry, ready *Ready) (ch choice, start int, ok bool) {
	if !st.active {
		return choice{}, int(st.idx), false
	}
	if st.residual > 0 {
		e := entries[st.idx]
		if !e.IsFree() && e.VL < NumDataVLs && ready[e.VL] > 0 {
			return choice{entry: int(st.idx), vl: int(e.VL), fresh: false}, 0, true
		}
	}
	return choice{}, int(st.idx) + 1, false
}

// peekHigh is peek for the high table, with the cyclic scan done on the
// slot masks: the slots whose VL is eligible are the OR of hiSlots over
// the ready VLs, and the first of them at or after the cursor is one
// rotate and one count-trailing-zeros away.  That is the entry a walk
// from the cursor would stop at, after examining step+1 entries; with
// no eligible slot the walk would have examined the whole table.
// visited keeps reporting that count.
func (a *Arbiter) peekHigh(ready *Ready) (ch choice, visited int, ok bool) {
	ch, start, ok := a.hi.hold(a.table.High[:], ready)
	if ok {
		return ch, 1, true
	}
	var elig uint64
	for vl, size := range ready {
		if size != 0 {
			elig |= a.hiSlots[vl]
		}
	}
	if elig == 0 {
		return choice{}, TableSize, false
	}
	step := bits.TrailingZeros64(bits.RotateLeft64(elig, -start))
	i := (start + step) % TableSize
	return choice{entry: i, vl: int(a.table.High[i].VL), fresh: true}, step + 1, true
}

// peek finds the entry the weighted round-robin would serve next
// without consuming anything.  The current entry keeps the token while
// it has residual allowance and an eligible packet; otherwise the scan
// advances cyclically to the next entry whose VL is eligible.  Skipped
// entries forfeit their allowance for this cycle, exactly as a hardware
// arbiter would move past VLs with nothing to send.  visited reports
// how many entries were examined, for scan-length instrumentation.  The
// cursor must lie inside the table (Pick restarts it when the table
// shrinks).
func peek(entries []Entry, st *wrrState, ready *Ready) (ch choice, visited int, ok bool) {
	if len(entries) == 0 {
		return choice{}, 0, false
	}
	ch, start, ok := st.hold(entries, ready)
	if ok {
		return ch, 1, true
	}
	// Advance to the next entry with an eligible VL.
	for step := 0; step < len(entries); step++ {
		i := (start + step) % len(entries)
		e := entries[i]
		if e.IsFree() || ready[e.VL] == 0 {
			continue
		}
		return choice{entry: i, vl: int(e.VL), fresh: true}, step + 1, true
	}
	return choice{}, len(entries), false
}

// commit applies a choice returned by peek: the serving entry becomes
// current and its allowance is decremented by the packet size.  A fresh
// visit first grants the entry its full weight allowance.
func commit(entries []Entry, st *wrrState, ch choice, size int) {
	if ch.fresh {
		st.idx = int32(ch.entry)
		st.active = true
		st.residual = int32(entries[ch.entry].Weight) * WeightUnit
	}
	st.residual -= int32(size)
}
