// Package arbtable models the InfiniBand VLArbitrationTable and the
// weighted round-robin arbiter that schedules data virtual lanes on an
// output port (IBA spec 1.0, section 7.6.9; summarized in section 2.1
// of Alfaro et al., ICPP 2003).
//
// A port arbitration table has two weighted round-robin tables, one for
// high-priority VLs and one for low-priority VLs, and a
// LimitOfHighPriority value bounding how many bytes the high-priority
// table may send while a low-priority packet is waiting.  Each table
// entry names a VL and a weight, the number of 64-byte units the VL may
// transmit each time the entry is visited.  A weight of zero marks the
// entry unused.
package arbtable

import (
	"fmt"
	"math/bits"
	"strings"
)

const (
	// TableSize is the number of entries in the high-priority table.
	// IBA allows up to 64 entries to be cycled through; the fill-in
	// algorithm always works with the full 64-slot table.
	TableSize = 64

	// NumVLs is the number of virtual lanes a port can implement.
	NumVLs = 16

	// MgmtVL is the subnet-management virtual lane.  It never appears
	// in arbitration tables: it has absolute priority over data VLs.
	MgmtVL = 15

	// NumDataVLs is the number of virtual lanes usable for data.
	NumDataVLs = NumVLs - 1

	// WeightUnit is the number of bytes one unit of entry weight
	// allows a VL to transmit.
	WeightUnit = 64

	// MaxWeight is the largest weight an entry can hold.
	MaxWeight = 255

	// LimitUnit is the number of bytes one unit of LimitOfHighPriority
	// lets the high-priority table send before a pending low-priority
	// packet must be served.
	LimitUnit = 4096

	// UnlimitedHigh is the LimitOfHighPriority value meaning the
	// high-priority table is never preempted by the low-priority one.
	UnlimitedHigh = 255

	// MaxTableWeight is the aggregate weight capacity of the
	// high-priority table: TableSize entries of MaxWeight each.  A
	// connection holding weight w out of MaxTableWeight is guaranteed
	// the fraction w/MaxTableWeight of the link bandwidth.
	MaxTableWeight = TableSize * MaxWeight
)

// Entry is one slot of an arbitration table: a virtual lane and the
// number of 64-byte units it may transmit per visit.  Weight zero marks
// the slot unused.
type Entry struct {
	VL     uint8
	Weight uint8
}

// IsFree reports whether the slot is unused.
func (e Entry) IsFree() bool { return e.Weight == 0 }

// Table is a port's VLArbitrationTable.
type Table struct {
	// High is the high-priority table.  The fill-in algorithm of the
	// paper operates on these 64 slots; positions matter because the
	// distance between consecutive occupied slots bounds latency.
	// Direct writes are only valid before an Arbiter is attached: a
	// running arbiter schedules from slot masks it derives from High at
	// construction and after every Swap, so later changes must arrive
	// through Swap (Arbiter.CheckIndex reports the ones that did not).
	High [TableSize]Entry

	// Low is the low-priority table, used for best-effort and
	// challenged traffic.  Slot positions carry no latency meaning, so
	// it is a plain list.
	Low []Entry

	// Limit is the LimitOfHighPriority value: the high-priority table
	// may send Limit*LimitUnit bytes while a low-priority packet
	// waits.  UnlimitedHigh disables preemption.
	Limit uint8

	// version is the table's epoch: it advances exactly once per Swap,
	// never on in-place mutation.  The arbiter compares it against the
	// epoch it last scheduled under and re-anchors its round-robin
	// state at the next packet boundary when they differ.
	version uint64
}

// Version returns the table's current epoch.  A freshly constructed
// table is at epoch 0; every Swap advances it by one.
func (t *Table) Version() uint64 { return t.version }

// Swap atomically replaces the whole high-priority table and advances
// the epoch.  This is the only sanctioned way for the control plane to
// change the high table of a running port: the arbiter observes the
// new epoch at its next Pick (a packet boundary) and re-anchors its
// weighted round-robin state there, so a schedule is never torn
// mid-packet.  The low table is not covered: it is a plain list whose
// in-place edits remain safe between Picks.  It returns the new epoch.
func (t *Table) Swap(high [TableSize]Entry) uint64 {
	t.High = high
	t.version++
	return t.version
}

// New returns an empty table with the given LimitOfHighPriority.
func New(limit uint8) *Table {
	return &Table{Limit: limit}
}

// highSlotMasks returns, for every data VL, the set of high-table
// slots that serve it: bit i of element vl is set when High[i] names vl
// with weight > 0.  These are the paper's entry sets E(i,j) seen from
// the arbiter's side — a sequence of 2^k equally spaced slots is one
// strided 64-bit word.  Entries naming a VL outside the data range
// appear in no mask.
func (t *Table) highSlotMasks() (masks [NumDataVLs]uint64) {
	for i, e := range t.High {
		if !e.IsFree() && e.VL < NumDataVLs {
			masks[e.VL] |= 1 << uint(i)
		}
	}
	return masks
}

// highSlotMask returns the highSlotMasks element of one VL, zero for
// VLs outside the data range.
func (t *Table) highSlotMask(vl uint8) uint64 {
	if vl >= NumDataVLs {
		return 0
	}
	return t.highSlotMasks()[vl]
}

// MaxGap returns, for the given VL, the maximum cyclic distance between
// consecutive occupied high-table slots, or 0 if the VL occupies no
// slot.  This is the quantity the paper's latency guarantee bounds: a
// connection requesting distance d must see MaxGap <= d.
func (t *Table) MaxGap(vl uint8) int {
	m := t.highSlotMask(vl)
	if m == 0 {
		return 0
	}
	// Rotate an occupied slot to bit 0; each further set bit then ends
	// one gap, and the wrap back to bit 0 closes the last one.  A lone
	// slot is its own successor a full table away.
	m = bits.RotateLeft64(m, -bits.TrailingZeros64(m)) &^ 1
	maxGap, prev := 0, 0
	for ; m != 0; m &= m - 1 {
		next := bits.TrailingZeros64(m)
		maxGap = max(maxGap, next-prev)
		prev = next
	}
	return max(maxGap, TableSize-prev)
}

// HighWeightForVL returns the total high-table weight allocated to a
// VL (summing every slot that names it — collapsed mappings place
// several reservations on one lane).  Zero for absent VLs.
func (t *Table) HighWeightForVL(vl uint8) int {
	w := 0
	for _, e := range t.High {
		if !e.IsFree() && e.VL == vl {
			w += int(e.Weight)
		}
	}
	return w
}

// LowWeightForVL returns the total low-table weight allocated to a VL.
// Multi-plane fabrics install the best-effort entries once per escape
// plane, so a lane's weight is the sum over its entries.
func (t *Table) LowWeightForVL(vl uint8) int {
	w := 0
	for _, e := range t.Low {
		if !e.IsFree() && e.VL == vl {
			w += int(e.Weight)
		}
	}
	return w
}

// HighLimitFraction returns the fraction of link bandwidth the
// high-priority table keeps when both tables are backlogged, given the
// wire sizes of the competing packets.  The arbiter preempts the high
// table once it has sent Limit*LimitUnit bytes while a low packet
// waits (arbiter.limitExceeded), then serves exactly one low packet:
// the steady-state cycle is max(Limit*LimitUnit, hiWire) high bytes
// followed by loWire low bytes.  UnlimitedHigh never preempts (1.0);
// Limit 0 alternates single packets.  A non-positive wire size returns
// 1.0 — there is no competing packet to yield to.
func (t *Table) HighLimitFraction(hiWire, loWire int) float64 {
	if t.Limit == UnlimitedHigh {
		return 1.0
	}
	if hiWire <= 0 || loWire <= 0 {
		return 1.0
	}
	hiBytes := int(t.Limit) * LimitUnit
	if hiBytes < hiWire {
		// The high table always completes the packet in flight: even
		// Limit 0 sends one whole high packet per cycle.
		hiBytes = hiWire
	}
	return float64(hiBytes) / float64(hiBytes+loWire)
}

// String renders the table compactly: occupied high slots as
// "pos:VLv*w" plus the low table and limit.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString("high[")
	first := true
	for i, e := range t.High {
		if e.IsFree() {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d:VL%d*%d", i, e.VL, e.Weight)
	}
	b.WriteString("] low[")
	for i, e := range t.Low {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "VL%d*%d", e.VL, e.Weight)
	}
	fmt.Fprintf(&b, "] limit=%d", t.Limit)
	return b.String()
}
