// Package core implements the primary contribution of Alfaro, Sánchez
// and Duato (ICPP 2003): the algorithm that fills in the high-priority
// InfiniBand virtual-lane arbitration table so that connections with
// bandwidth and latency requirements can be allocated optimally.
//
// # Model
//
// The high-priority table has 64 slots t[0..63].  A connection asking
// for a maximum distance d between two consecutive entries and a mean
// bandwidth that converts to a weight w needs
//
//	n = max(64/d, ceil(w/255))
//
// slots, rounded up to the next power of two.  It is then placed on a
// candidate set E(i,j) = { t[j + k·2^i] : k = 0 .. 64/2^i - 1 } — the
// slots at equal stride 2^i starting at offset j — where 64/2^i = n.
// Only distances 2,4,8,16,32,64 are supported (the divisors of 64
// larger than 1), so a request occupies 32, 16, 8, 4, 2 or 1 slots.
//
// # Fill-in algorithm
//
// For a request of stride 2^i the allocator inspects the candidate
// sets E(i, rev_i(0)), E(i, rev_i(1)), ..., E(i, rev_i(2^i - 1)) —
// offsets in bit-reversal order — and takes the first fully free one.
// Scanning in this order fills even slots before odd slots at every
// scale, which keeps the free slots positioned to satisfy the most
// restrictive possible future request.  Together with defragmentation
// on release this yields the paper's theorem:
//
//	a request of n slots succeeds if and only if n slots are free.
//
// # Sequence sharing
//
// Connections of the same service level (hence same VL and distance)
// share a sequence: their weights accumulate on its slots until the
// sequence's capacity (n·255) is reached, and only then is a second
// sequence allocated.  Reserve/Release implement this layer on top of
// the raw Allocate/Free primitives.
//
// # Defragmentation
//
// When a sequence's accumulated weight drops to zero its slots are
// freed.  Freeing can leave equal-sized free sets that are not aligned
// ("buddies" in different subtrees), which would break the theorem.
// The defragmenter relocates live sequences to the lowest free
// bit-reversal ranks, largest sequences first, which provably restores
// the invariant (the companion technical report with the original
// incremental procedure is unavailable; this re-derivation achieves
// the same stated property and is verified by property tests).
//
// # Representation
//
// A candidate set is a strided 64-bit constant — E(i,0) has the bits
// 0, 2^i, 2·2^i, ... set and E(i,j) is that word shifted left by j —
// so the allocator keeps slot ownership as one occupancy word: "is
// this set free" is an AND, placing and freeing a sequence an OR and an
// AND-NOT, the free-slot count a population count, and the first fit is
// word-wide too: folding the word over the stride leaves one bit per
// candidate start, and six masks, one per offset bit, pick the first
// free start in bit-reversal order.  The live sequences sit in one
// list in ascending ID order (IDs only grow, so appending keeps it
// sorted); one pass over it buckets the positions into one 64-bit word
// per size class, which makes "largest first, ties by ID" a walk over
// six words with no sorting.  The reserved weight is a running total.
// Sequence records are recycled within an allocator, and a Reservation
// carries its sequence's record, so a release reaches its sequence
// without a search.  Every write to the table also records the 16-entry
// blocks it touched, from the stride alone, so that programming the
// port compares only those blocks.  Nothing on the
// reserve/release/defragment path allocates once the allocator has made
// as many records as it ever holds at once.  The word, the list order,
// the total, the lane index, the records and the written blocks are
// derived state: checkInvariants (and, for the blocks,
// PortTable.CheckInvariants) recomputes each and reports any
// disagreement.
package core

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/arbtable"
)

// TableSize is the number of slots in the high-priority table.
const TableSize = arbtable.TableSize

// MaxSeqSlots is the largest number of slots a single sequence may
// occupy (a distance-2 request).  The paper does not use distance 1.
const MaxSeqSlots = TableSize / 2

// MaxSeqWeight is the largest weight one sequence can carry.
const MaxSeqWeight = MaxSeqSlots * arbtable.MaxWeight

// Distances lists the supported maximum distances between consecutive
// slots of a sequence, in increasing (more to less restrictive) order.
var Distances = []int{2, 4, 8, 16, 32, 64}

// Errors returned by the allocator.
var (
	ErrBadDistance = errors.New("core: distance must be one of 2, 4, 8, 16, 32, 64")
	ErrBadWeight   = errors.New("core: weight must be in [1, 8160]")
	ErrNoSpace     = errors.New("core: not enough free slots for the request")
	ErrUnknownSeq  = errors.New("core: unknown sequence")
)

// noSpaceError is Allocate's refusal: the request's shape and the
// free-slot count, rendered only when Error is called.  It unwraps to
// ErrNoSpace.
type noSpaceError struct{ need, stride, free int }

func (e *noSpaceError) Error() string {
	return fmt.Sprintf("%v (need %d slots at stride %d, %d free)", ErrNoSpace, e.need, e.stride, e.free)
}

func (e *noSpaceError) Unwrap() error { return ErrNoSpace }

// noSpaceErrs interns one refusal per (log2 stride, free slots) pair —
// every refusal Allocate can report — so that refusing allocates
// nothing.  Entries are never modified after initialization.
var noSpaceErrs = func() (t [numStrides][TableSize + 1]noSpaceError) {
	for i := range t {
		for free := range t[i] {
			t[i][free] = noSpaceError{need: TableSize >> uint(i), stride: 1 << uint(i), free: free}
		}
	}
	return t
}()

// SeqID identifies an allocated sequence.  IDs are never reused within
// one Allocator.
type SeqID int64

// Sequence is a set of equally spaced high-priority table slots
// assigned to one virtual lane, shared by the connections of one
// service level.
//
// An allocator recycles its Sequence records: once a sequence is freed
// its record may be handed out again, under a new ID, by a later
// placement.  A *Sequence obtained from an Allocator therefore
// describes that sequence only while it is live.
type Sequence struct {
	ID     SeqID
	VL     uint8
	Stride int // distance between consecutive slots (power of two)
	Start  int // first slot offset, in [0, Stride)
	Count  int // number of slots: TableSize / Stride
	Weight int // accumulated weight of the sharing connections
	Conns  int // number of connections sharing the sequence

	owner *Allocator // the allocator the sequence is live in; nil while the record is free
}

// tableWeight is the weight actually written to the table slots.  A
// latency-bound sequence may accumulate less weight than it has slots,
// but every slot must carry weight at least 1 or the arbiter would
// skip it and the distance guarantee would be lost; so each slot gets
// at least one unit and the table weight is max(Weight, Count).
func (s *Sequence) tableWeight() int {
	if s.Weight < s.Count {
		return s.Count
	}
	return s.Weight
}

// capacity returns the total weight the sequence can hold.
func (s *Sequence) capacity() int { return s.Count * arbtable.MaxWeight }

// Spare returns the weight still available on the sequence.
func (s *Sequence) Spare() int { return s.capacity() - s.Weight }

// String implements fmt.Stringer.
func (s *Sequence) String() string {
	return fmt.Sprintf("seq%d VL%d stride=%d start=%d count=%d weight=%d conns=%d",
		s.ID, s.VL, s.Stride, s.Start, s.Count, s.Weight, s.Conns)
}

// Shape computes the placement of a request: the number of slots it
// needs and the stride at which they will be placed.  The stride never
// exceeds the requested distance (a weight-bound request is placed
// more densely, which also satisfies its latency requirement).
func Shape(distance, weight int) (stride, count int, err error) {
	if !validDistance(distance) {
		return 0, 0, fmt.Errorf("%w (got %d)", ErrBadDistance, distance)
	}
	if weight < 1 || weight > MaxSeqWeight {
		return 0, 0, fmt.Errorf("%w (got %d)", ErrBadWeight, weight)
	}
	count = TableSize / distance
	forWeight := (weight + arbtable.MaxWeight - 1) / arbtable.MaxWeight
	if forWeight > count {
		count = nextPow2(forWeight)
	}
	return TableSize / count, count, nil
}

func validDistance(d int) bool {
	switch d {
	case 2, 4, 8, 16, 32, 64:
		return true
	}
	return false
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// numStrides counts the power-of-two strides 1, 2, 4, ..., TableSize;
// tables indexed by log2(stride) have this many rows.
const numStrides = 7

// strideMask[i] is the candidate set E(i,0) as a 64-bit word: the
// slots 0, 2^i, 2·2^i, ...  Shifting it left by j gives E(i,j), so
// "is this set free", "claim it" and "give it back" are one AND, OR
// and AND-NOT against the occupancy word.
var strideMask = func() (m [numStrides]uint64) {
	for i := range m {
		for pos := 0; pos < TableSize; pos += 1 << uint(i) {
			m[i] |= 1 << uint(pos)
		}
	}
	return m
}()

// setMask returns the candidate set with the given stride (a power of
// two in [1, TableSize]) and start offset as a slot mask.
func setMask(stride, start int) uint64 {
	return strideMask[bits.TrailingZeros(uint(stride))] << uint(start)
}

// mask returns the slots the sequence occupies.
func (s *Sequence) mask() uint64 { return setMask(s.Stride, s.Start) }

// strideBlocks[i] is the set of 16-entry blocks the candidate set
// E(i,0) meets, bit b for block b.  A set of stride 16 or less meets
// every block; E(i,j) meets strideBlocks[i] shifted left by j/16, since
// j < stride.
var strideBlocks = func() (b [numStrides]uint8) {
	for i := range b {
		for pos := 0; pos < TableSize; pos += 1 << uint(i) {
			b[i] |= 1 << uint(pos/BlockEntries)
		}
	}
	return b
}()

// blocks returns the 16-entry blocks the sequence's slots fall in.
func (s *Sequence) blocks() uint8 {
	return strideBlocks[bits.TrailingZeros(uint(s.Stride))] << uint(s.Start/BlockEntries)
}

// Allocator manages the high-priority table of one output port.  It is
// not safe for concurrent use; in the simulator each port is owned by
// the single simulation goroutine.
//
// Besides the table it keeps derived state, all re-derived and
// compared by checkInvariants: occ, live's order, total, the lane index
// and the record pool.  written is audited by PortTable.CheckInvariants.
type Allocator struct {
	table  *arbtable.Table
	policy Policy
	nextID SeqID

	// occ is the occupancy word: bit i is set when slot i belongs to a
	// live sequence.
	occ uint64

	// live holds the live sequences in ascending ID order.  IDs are
	// assigned in increasing order, so appending on Allocate keeps it
	// sorted; a table of 64 slots holds at most 64 of them.
	live []*Sequence

	// total is the aggregate weight of the live sequences.
	total int

	// byVL indexes the live sequences by virtual lane: the lanes'
	// runs back to back in lane order, each in ascending ID order like
	// live.  Lane vl's run ends at vlEnd[vl] and starts where lane
	// vl-1's ends (at 0 for lane 0).  It lets the sequence-sharing scan
	// of PortTable.Reserve visit one lane's sequences only.
	byVL  []*Sequence
	vlEnd [arbtable.NumDataVLs]uint8

	// written holds the 16-entry blocks of the table that place and
	// unplace wrote since the owning PortTable last took them (see
	// PortTable.changedBlocks).
	written uint8

	// moves counts sequences relocated by defragmentation over the
	// allocator's lifetime — the table-update cost the subnet manager
	// would pay for the paper's release discipline.
	moves int

	// free holds the records of freed sequences for later placements
	// to reuse.  A record is made only when none is free, so live and
	// free records together never outnumber the table's slots.
	free []*Sequence
}

// NewAllocator returns an allocator managing the high-priority table
// of t with the paper's bit-reversal policy.  The table must not be
// mutated behind the allocator's back.
func NewAllocator(t *arbtable.Table) *Allocator {
	return NewAllocatorWithPolicy(t, BitReversal)
}

// NewAllocatorWithPolicy returns an allocator using an alternative
// placement policy; used by the baseline comparisons.
func NewAllocatorWithPolicy(t *arbtable.Table, p Policy) *Allocator {
	return &Allocator{table: t, policy: p, nextID: 1}
}

// Table returns the managed arbitration table.
func (a *Allocator) Table() *arbtable.Table { return a.table }

// FreeSlots returns the number of unoccupied high-priority slots.
func (a *Allocator) FreeSlots() int { return TableSize - bits.OnesCount64(a.occ) }

// TotalWeight returns the aggregate weight of all live sequences.
func (a *Allocator) TotalWeight() int { return a.total }

// Sequences returns the live sequences sorted by ID, in a fresh slice
// the caller owns.  The records are the allocator's own: each describes
// its sequence until that sequence is freed, after which the record may
// be reused for another one.
func (a *Allocator) Sequences() []*Sequence {
	out := make([]*Sequence, len(a.live))
	copy(out, a.live)
	return out
}

// SequencesForVL returns the live sequences of one virtual lane in
// ascending ID order.  The slice is the allocator's internal index —
// callers must treat it as read-only and must not hold it across
// Allocate/RemoveWeight calls.  Unlike Sequences it performs no
// allocation, which keeps the admission hot path allocation-free.
func (a *Allocator) SequencesForVL(vl uint8) []*Sequence {
	if vl >= arbtable.NumDataVLs {
		return nil
	}
	lo, hi := a.laneRun(vl)
	return a.byVL[lo:hi:hi]
}

// laneRun returns the bounds of lane vl's run in byVL.
func (a *Allocator) laneRun(vl uint8) (lo, hi int) {
	if vl > 0 {
		lo = int(a.vlEnd[vl-1])
	}
	return lo, int(a.vlEnd[vl])
}

// Lookup returns the live sequence with the given ID, or nil.  The
// record describes the sequence until it is freed (RemoveWeight
// reporting freed); after that the allocator may reuse it for another
// sequence, so callers must not hold it across that release.
func (a *Allocator) Lookup(id SeqID) *Sequence {
	if i := a.find(id); i >= 0 {
		return a.live[i]
	}
	return nil
}

// find returns the position of the sequence with the given ID in the
// ID-ordered live list, or -1.
func (a *Allocator) find(id SeqID) int {
	lo, hi := 0, len(a.live)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a.live[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(a.live) && a.live[lo].ID == id {
		return lo
	}
	return -1
}

// firstFree returns the first start offset, in the policy's inspection
// order, whose candidate set of the given stride is entirely free.
func (a *Allocator) firstFree(stride int) (start int, ok bool) {
	return a.policy.firstFit(a.occ, bits.TrailingZeros(uint(stride)))
}

// fit is firstFree with Allocate's refusal.
func (a *Allocator) fit(stride int) (start int, err error) {
	j, ok := a.firstFree(stride)
	if !ok {
		return 0, &noSpaceErrs[bits.TrailingZeros(uint(stride))][a.FreeSlots()]
	}
	return j, nil
}

// errNotDataVL is the refusal of a placement on a lane that carries no
// data.
func errNotDataVL(vl uint8) error { return fmt.Errorf("core: VL %d is not a data VL", vl) }

// Allocate places a new sequence for a connection of virtual lane vl
// requesting a maximum distance and a weight.  Candidate offsets are
// inspected in bit-reversal order and the first fully free set is
// taken.  It returns ErrNoSpace when no candidate set is free — which,
// as long as releases run the defragmenter, happens exactly when fewer
// slots are free than the request needs.  The record returned is the
// allocator's (see Lookup for how long it describes the sequence).
func (a *Allocator) Allocate(vl uint8, distance, weight int) (*Sequence, error) {
	if vl >= arbtable.NumDataVLs {
		return nil, errNotDataVL(vl)
	}
	stride, _, err := Shape(distance, weight)
	if err != nil {
		return nil, err
	}
	j, err := a.fit(stride)
	if err != nil {
		return nil, err
	}
	return a.add(vl, stride, j, weight), nil
}

// add places a fresh sequence at a start offset whose candidate set is
// free, in a recycled record when one is free.
func (a *Allocator) add(vl uint8, stride, start, weight int) *Sequence {
	var s *Sequence
	if n := len(a.free); n > 0 {
		s = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
	} else {
		s = new(Sequence)
	}
	*s = Sequence{
		ID: a.nextID, VL: vl,
		Stride: stride, Start: start, Count: TableSize / stride,
		Weight: weight, Conns: 1, owner: a,
	}
	a.nextID++
	if len(a.live) == cap(a.live) {
		a.grow()
	}
	// IDs ascend, so appending keeps live sorted, and the end of its
	// lane's run is where the sequence goes in byVL.
	a.live = append(a.live, s)
	_, hi := a.laneRun(vl)
	a.byVL = append(a.byVL, nil)
	copy(a.byVL[hi+1:], a.byVL[hi:])
	a.byVL[hi] = s
	for v := vl; v < arbtable.NumDataVLs; v++ {
		a.vlEnd[v]++
	}
	a.total += weight
	a.place(s)
	return s
}

// grow doubles the capacity of live and byVL.  The two lists always
// hold the same sequences, so they share one backing array, live in its
// first half and byVL in its second, each capped at its half: one
// allocation per doubling instead of two.
func (a *Allocator) grow() {
	n, c := len(a.live), max(1, 2*cap(a.live))
	buf := make([]*Sequence, 2*c)
	copy(buf, a.live)
	copy(buf[c:], a.byVL)
	a.live, a.byVL = buf[:n:c], buf[c:c+n:2*c]
}

// held returns the live sequence a reservation names: the record it
// carries when that record is still the sequence's, live here under the
// same ID, else the sequence found by ID.  It returns nil when the
// sequence is not live.
func (a *Allocator) held(r Reservation) *Sequence {
	if s := r.seq; s != nil && s.owner == a && s.ID == r.Seq {
		return s
	}
	return a.Lookup(r.Seq)
}

// place claims the sequence's slots in the occupancy word and writes
// them to the arbitration table, distributing its table weight as
// evenly as possible (every slot gets at least one unit).
func (a *Allocator) place(s *Sequence) {
	a.occ |= s.mask()
	a.written |= s.blocks()
	w := s.tableWeight()
	base := w / s.Count
	extra := w % s.Count
	for k := 0; k < s.Count; k++ {
		ew := base
		if k < extra {
			ew++
		}
		a.table.High[s.Start+k*s.Stride] = arbtable.Entry{VL: s.VL, Weight: uint8(ew)}
	}
}

// unplace clears the sequence's slots from the occupancy word and the
// table.
func (a *Allocator) unplace(s *Sequence) {
	a.occ &^= s.mask()
	a.written |= s.blocks()
	for pos := s.Start; pos < TableSize; pos += s.Stride {
		a.table.High[pos] = arbtable.Entry{}
	}
}

// addWeight accumulates the weight of an additional connection on a
// live sequence.  It fails without side effects when the sequence lacks
// capacity.
func (a *Allocator) addWeight(s *Sequence, weight int) error {
	if weight < 1 {
		return ErrBadWeight
	}
	if weight > s.Spare() {
		return fmt.Errorf("core: sequence %d has spare %d, need %d", s.ID, s.Spare(), weight)
	}
	s.Weight += weight
	s.Conns++
	a.total += weight
	a.place(s)
	return nil
}

// RemoveWeight deducts a finished connection's weight from a sequence.
// When the accumulated weight reaches zero the slots are freed and the
// table defragmented.  It reports whether the sequence was freed.
func (a *Allocator) RemoveWeight(id SeqID, weight int) (freed bool, err error) {
	s := a.Lookup(id)
	if s == nil {
		return false, ErrUnknownSeq
	}
	return a.removeWeight(s, weight, a.policy.Defrag)
}

// removeWeight is RemoveWeight on a live sequence the caller already
// holds.  Only a release that empties the sequence searches, for its
// position in the live list.
func (a *Allocator) removeWeight(s *Sequence, weight int, defrag bool) (freed bool, err error) {
	if weight < 1 || weight > s.Weight {
		return false, fmt.Errorf("core: cannot remove weight %d from sequence with weight %d", weight, s.Weight)
	}
	s.Weight -= weight
	a.total -= weight
	if s.Conns > 0 {
		s.Conns--
	}
	if s.Weight == 0 {
		a.unplace(s)
		a.live = removeAt(a.live, a.find(s.ID))
		a.dropFromIndex(s)
		s.owner = nil
		a.free = append(a.free, s)
		if defrag {
			a.Defragment()
		}
		return true, nil
	}
	a.place(s)
	return false, nil
}

// removeAt splices element i out of an ordered sequence list, clearing
// the vacated tail cell so the freed sequence is not kept alive.
func removeAt(list []*Sequence, i int) []*Sequence {
	copy(list[i:], list[i+1:])
	list[len(list)-1] = nil
	return list[:len(list)-1]
}

// dropFromIndex splices a freed sequence out of the per-VL index.
func (a *Allocator) dropFromIndex(s *Sequence) {
	lo, hi := a.laneRun(s.VL)
	for i := lo; i < hi; i++ {
		if a.byVL[i] == s {
			a.byVL = removeAt(a.byVL, i)
			for v := s.VL; v < arbtable.NumDataVLs; v++ {
				a.vlEnd[v]--
			}
			return
		}
	}
	panic(fmt.Sprintf("core: sequence %d missing from VL %d index", s.ID, s.VL))
}

// Defragment relocates live sequences to the lowest free bit-reversal
// ranks, largest sequences first, ties by ID.  After it runs, the free
// slots again contain a fully free aligned candidate set of every
// power-of-two size up to the number of free slots, so the allocation
// theorem holds.  It returns the number of sequences that moved.
//
// Placing power-of-two-sized blocks in decreasing size order at the
// first free candidate set (bit-reversal order = left-to-right in the
// buddy tree over the strided sets) packs them without fragmentation;
// the remaining free sets then have pairwise distinct sizes whose sum
// is the free-slot count F, so a free set of size 2^k exists for every
// 2^k <= F.
//
// The placement order is produced without sorting: one pass over the
// ID-ordered live list sets, for each sequence, its position's bit in
// the word of its size class; walking the words from 32 slots down to
// 1, each in ascending bit order, visits the sequences largest first,
// ties by ID.  Each takes the first free set of its stride, in
// bit-reversal order, in the shadow occupancy: the allocator's own
// word-wide fit.  Only the sequences that moved are rewritten: their
// old slots cleared first, then their new ones written.
func (a *Allocator) Defragment() (moves int) {
	var class [numStrides]uint64 // bit i: live[i] is of that stride class
	for i, s := range a.live {
		class[bits.TrailingZeros(uint(s.Stride))] |= 1 << uint(i)
	}
	var shadow, moved uint64
	var newStart [TableSize]int8 // by position in live
	// Strides 2 up to 64: sequences of 32 slots down to 1.
	for c := 1; c < numStrides; c++ {
		for w := class[c]; w != 0; w &= w - 1 {
			i := bits.TrailingZeros64(w)
			j, ok := BitReversal.firstFit(shadow, c)
			if !ok {
				// Cannot happen: the same sequences fit before.
				panic("core: defragmentation failed to place a live sequence")
			}
			shadow |= strideMask[c] << uint(j)
			if j != a.live[i].Start {
				newStart[i] = int8(j)
				moved |= 1 << uint(i)
			}
		}
	}
	if moved == 0 {
		return 0
	}
	for w := moved; w != 0; w &= w - 1 {
		a.unplace(a.live[bits.TrailingZeros64(w)])
	}
	for w := moved; w != 0; w &= w - 1 {
		i := bits.TrailingZeros64(w)
		a.live[i].Start = int(newStart[i])
		a.place(a.live[i])
	}
	moves = bits.OnesCount64(moved)
	a.moves += moves
	return moves
}

// TotalMoves returns the cumulative number of sequence relocations
// performed by defragmentation.
func (a *Allocator) TotalMoves() int { return a.moves }

// CanAllocate reports whether a request with the given distance and
// weight would currently succeed.
func (a *Allocator) CanAllocate(distance, weight int) bool {
	stride, _, err := Shape(distance, weight)
	if err != nil {
		return false
	}
	_, ok := a.firstFree(stride)
	return ok
}

// checkInvariants verifies the allocator's internal consistency and
// the paper's two guarantees: its allocation theorem and the distance
// bound of every live sequence.  It is used by tests and by the
// simulator's self-checks, including after every rolled-back hop of an
// aborted admission, so it does not allocate.
func (a *Allocator) checkInvariants() error {
	// 1. The table agrees with the sequence records, and the derived
	// state — the ID order of the live list, the occupancy word, the
	// running weight total — agrees with what the records imply.
	var owned uint64
	var prev SeqID
	weight := 0
	for _, s := range a.live {
		if s.ID <= prev {
			return fmt.Errorf("live list out of ID order at sequence %d (after %d)", s.ID, prev)
		}
		prev = s.ID
		if s.Count*s.Stride != TableSize {
			return fmt.Errorf("sequence %v: count*stride != %d", s, TableSize)
		}
		if s.Start < 0 || s.Start >= s.Stride {
			return fmt.Errorf("sequence %v: start outside [0,stride)", s)
		}
		if s.Weight < 1 || s.Weight > s.capacity() {
			return fmt.Errorf("sequence %v: weight out of range", s)
		}
		weight += s.Weight
		m := s.mask()
		if both := owned & m; both != 0 {
			return fmt.Errorf("slot %d claimed by two sequences", bits.TrailingZeros64(both))
		}
		owned |= m
		sum := 0
		for pos := s.Start; pos < TableSize; pos += s.Stride {
			e := a.table.High[pos]
			if e.VL != s.VL {
				return fmt.Errorf("slot %d: table VL %d, sequence VL %d", pos, e.VL, s.VL)
			}
			if e.Weight == 0 {
				return fmt.Errorf("slot %d: zero weight on occupied slot", pos)
			}
			sum += int(e.Weight)
		}
		if sum != s.tableWeight() {
			return fmt.Errorf("sequence %v: slot weights sum to %d, want %d", s, sum, s.tableWeight())
		}
	}
	if diff := a.occ ^ owned; diff != 0 {
		pos := bits.TrailingZeros64(diff)
		return fmt.Errorf("slot %d: occupancy bit %d, live sequences say %d", pos, a.occ>>uint(pos)&1, owned>>uint(pos)&1)
	}
	for pos := range a.table.High {
		if owned>>uint(pos)&1 == 0 && !a.table.High[pos].IsFree() {
			return fmt.Errorf("slot %d: free but table entry not empty", pos)
		}
	}
	if a.total != weight {
		return fmt.Errorf("running weight total %d, live sequences sum to %d", a.total, weight)
	}
	// The record pool: a live sequence's record names this allocator,
	// a free record names none, and there are never more records than
	// slots.
	for _, s := range a.live {
		if s.owner != a {
			return fmt.Errorf("sequence %d: record not owned by this allocator", s.ID)
		}
	}
	for _, s := range a.free {
		if s.owner != nil {
			return fmt.Errorf("free record holds live sequence %d", s.ID)
		}
	}
	if n := len(a.live) + len(a.free); n > TableSize {
		return fmt.Errorf("%d sequence records, more than %d", n, TableSize)
	}
	// 2. The per-VL index holds exactly the live sequences, each lane's
	// run in ascending ID order.
	indexed := 0
	for vl := range a.vlEnd {
		var prev SeqID
		lo, hi := a.laneRun(uint8(vl))
		if hi < lo || hi > len(a.byVL) {
			return fmt.Errorf("VL %d run [%d, %d) outside the index of %d", vl, lo, hi, len(a.byVL))
		}
		for _, s := range a.byVL[lo:hi] {
			indexed++
			if a.Lookup(s.ID) != s {
				return fmt.Errorf("VL %d index holds stale sequence %d", vl, s.ID)
			}
			if int(s.VL) != vl {
				return fmt.Errorf("sequence %d on VL %d indexed under VL %d", s.ID, s.VL, vl)
			}
			if s.ID <= prev {
				return fmt.Errorf("VL %d index out of order at sequence %d", vl, s.ID)
			}
			prev = s.ID
		}
	}
	if indexed != len(a.live) || len(a.byVL) != len(a.live) {
		return fmt.Errorf("VL index holds %d sequences in %d cells, allocator has %d", indexed, len(a.byVL), len(a.live))
	}
	// 3. The allocation theorem: for every power-of-two size up to the
	// free-slot count there is a fully free candidate set.  Only the
	// paper's policy provides it.
	if a.policy.Name == BitReversal.Name {
		free := a.FreeSlots()
		for n := 1; n <= free && n <= MaxSeqSlots; n *= 2 {
			if _, found := a.firstFree(TableSize / n); !found {
				return fmt.Errorf("theorem violated: %d slots free but no free set of size %d", free, n)
			}
		}
	}
	// 4. The distance guarantee, read off the table as the arbiter
	// sees it: a lane's consecutive entries are never further apart than
	// the stride of any live sequence on it.  Check 1 implies it; it is
	// stated here so that no caller has to re-derive it.
	for vl := range a.vlEnd {
		seqs := a.SequencesForVL(uint8(vl))
		if len(seqs) == 0 {
			continue
		}
		gap := a.table.MaxGap(uint8(vl))
		for _, s := range seqs {
			if gap > s.Stride {
				return fmt.Errorf("VL %d max gap %d exceeds stride %d of sequence %d", vl, gap, s.Stride, s.ID)
			}
		}
	}
	return nil
}
