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
// restrictive possible future request.  Together with relocation on
// demand (below) this yields the paper's theorem, a statement about
// requests:
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
// # Relocation on demand
//
// When a sequence's accumulated weight drops to zero its slots are
// freed, and nothing else moves.  Freeing can leave equal-sized free
// sets that are not aligned ("buddies" in different subtrees), so a
// later request can find n slots free but no free candidate set of n.
// Only then does the table relocate: the defragmenter moves the live
// sequences to the lowest free bit-reversal ranks, largest sequences
// first, which provably leaves a free aligned set of every
// power-of-two size up to the free-slot count, and the request takes
// the first of its size.  The paper defragments on every release, so
// that the table is canonical in every state; the theorem needs it only
// when a request arrives, and deferring it spares the relocations of
// releases no request needed (the companion technical report with the
// original incremental procedure is unavailable; this re-derivation
// achieves the same stated property and is verified by property tests).
//
// Deciding needs no relocation: the candidate sets are the aligned
// blocks of a buddy system over the bit-reversal ranks, so placing
// blocks largest first packs them into the lowest ranks, and the
// canonical layout's occupancy is the first u ranks for u occupied
// slots, whatever the sizes.  A request that finds no free set takes
// its first fit in that word (canonOcc) and carries the relocation
// with it to Prepare.
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
// free start in bit-reversal order.  The live sequences sit by value
// in one list of 24-byte records in ascending ID order (IDs only grow,
// so appending keeps it sorted).  A release scans it for its sequence's
// ID; a join scans it for its lane; and one pass over it buckets the
// positions into one 64-bit word per size class, which makes "largest
// first, ties by ID" a walk over six words with no sorting.  The
// reserved weight is a running total.  A join or leave that moves a
// sequence's table weight by less than its slot count rewrites only the
// entries whose share changed, and every write to the table records the
// 16-entry blocks whose values it changed, so that programming the port
// knows which blocks differ and compares only those a second write may
// have reverted.  Nothing on the reserve/release/defragment path
// allocates once the list has grown to as many sequences as the port
// ever holds at once.  The word, the list order, the total and the
// written blocks are derived state: checkInvariants (and, for the
// blocks, PortTable.CheckInvariants) recomputes each and reports any
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
// An allocator keeps its live sequences by value in one ID-ordered
// list, so a *Sequence or a slice of them obtained from an Allocator
// describes its sequences only until the allocator next changes: a
// placement may move the list, and a free shifts the records after the
// freed one.  A sequence holds at most TableSize slots of weight at most
// arbtable.MaxWeight each, so Start and Count fit a byte and Weight and
// Conns 16 bits: the record is 24 bytes and holds no pointer.
type Sequence struct {
	ID     SeqID
	Stride int // distance between consecutive slots (power of two)
	VL     uint8
	Start  uint8  // first slot offset, in [0, Stride)
	Count  uint8  // number of slots: TableSize / Stride
	Weight uint16 // accumulated weight of the sharing connections
	Conns  uint16 // number of connections sharing the sequence
}

// tableWeight is the weight actually written to the table slots.  A
// latency-bound sequence may accumulate less weight than it has slots,
// but every slot must carry weight at least 1 or the arbiter would
// skip it and the distance guarantee would be lost; so each slot gets
// at least one unit and the table weight is max(Weight, Count).
func (s *Sequence) tableWeight() int { return max(int(s.Weight), int(s.Count)) }

// capacity returns the total weight the sequence can hold.
func (s *Sequence) capacity() int { return int(s.Count) * arbtable.MaxWeight }

// Spare returns the weight still available on the sequence.
func (s *Sequence) Spare() int { return s.capacity() - int(s.Weight) }

// String implements fmt.Stringer.  It takes a value, so that the values
// Sequences returns print; the other methods take a pointer and read
// only the fields they need of a record the allocator may just have
// written.
func (s Sequence) String() string {
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
func (s *Sequence) mask() uint64 { return setMask(s.Stride, int(s.Start)) }

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
	return strideBlocks[bits.TrailingZeros(uint(s.Stride))] << (s.Start / BlockEntries)
}

// Allocator manages the high-priority table of one output port.  It is
// not safe for concurrent use; in the simulator each port is owned by
// the single simulation goroutine.
//
// Besides the table it keeps derived state, all re-derived and
// compared by checkInvariants: occ, live's order and total.  written is
// audited by PortTable.CheckInvariants.
type Allocator struct {
	table  *arbtable.Table
	policy Policy
	nextID SeqID

	// occ is the occupancy word: bit i is set when slot i belongs to a
	// live sequence.
	occ uint64

	// live holds the live sequences by value in ascending ID order.  IDs
	// are assigned in increasing order, so appending on Allocate keeps it
	// sorted; a table of 64 slots holds at most 64 of them.
	live []Sequence

	// total is the aggregate weight of the live sequences.
	total int

	// moves counts sequences relocated by defragmentation over the
	// allocator's lifetime — the table-update cost the subnet manager
	// pays for the relocations requests needed.
	moves int

	// written marks the 16-entry blocks of the table whose values
	// place, unplace and reweight changed since the owning PortTable
	// last took them (see PortTable.changedBlocks).
	written blockMarks
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

// Sequences returns the live sequences in ascending ID order.  The
// slice is the allocator's own list, read-only to the caller: it
// describes the sequences until the allocator next changes.
func (a *Allocator) Sequences() []Sequence { return a.live[:len(a.live):len(a.live)] }

// SequencesForVL returns the live sequences of one virtual lane in
// ascending ID order, in a fresh slice the caller owns, or nil when the
// lane has none.  Like Sequences it describes them until the allocator
// next changes.
func (a *Allocator) SequencesForVL(vl uint8) []Sequence {
	var out []Sequence
	for _, s := range a.live {
		if s.VL == vl {
			out = append(out, s)
		}
	}
	return out
}

// Lookup returns the live sequence with the given ID, or nil.  The
// pointer is into the allocator's list: it describes the sequence until
// the allocator next changes.
func (a *Allocator) Lookup(id SeqID) *Sequence {
	if i := a.find(id); i >= 0 {
		return &a.live[i]
	}
	return nil
}

// find returns the position of the sequence with the given ID in the
// ID-ordered live list, or -1.  The list is short — a port's sequences
// share its 64 slots — so a scan that stops at the sequence beats a
// binary search, whose probes each wait on the last.
func (a *Allocator) find(id SeqID) int {
	for i := range a.live {
		if a.live[i].ID == id {
			return i
		}
	}
	return -1
}

// canonOcc[u] is the occupancy word of the canonical layout — the one
// Defragment produces — of any live set covering u slots: the slots of
// bit-reversal rank below u.  A candidate set of stride 2^i is the rank
// block [rev_i(j)·n, (rev_i(j)+1)·n) of its n = 64/2^i slots, so the
// sets are the aligned blocks of a buddy system over the ranks, and
// placing them largest first, each at its first free block, fills the
// ranks from 0 up without a gap.  checkInvariants holds it to
// Defragment's own placement.
var canonOcc = func() (m [TableSize + 1]uint64) {
	for u := 1; u <= TableSize; u++ {
		m[u] = m[u-1] | 1<<(bits.Reverse8(uint8(u-1))>>2)
	}
	return m
}()

// fit returns where a request of the given stride goes: the first free
// candidate set in the policy's inspection order, else — when the
// policy relocates and enough slots are free — the first free set of
// the canonical layout, with relocate set: the request is granted after
// Defragment runs.  It writes nothing.  The refusal is Allocate's.
func (a *Allocator) fit(stride int) (start int, relocate bool, err error) {
	c := bits.TrailingZeros(uint(stride))
	if j, ok := a.policy.firstFit(a.occ, c); ok {
		return j, false, nil
	}
	free := a.FreeSlots()
	if !a.policy.natural && TableSize/stride <= free {
		if j, ok := a.policy.firstFit(canonOcc[TableSize-free], c); ok {
			return j, true, nil
		}
	}
	return 0, false, &noSpaceErrs[c][free]
}

// errNotDataVL is the refusal of a placement on a lane that carries no
// data.
func errNotDataVL(vl uint8) error { return fmt.Errorf("core: VL %d is not a data VL", vl) }

// Allocate places a new sequence for a connection of virtual lane vl
// requesting a maximum distance and a weight.  Candidate offsets are
// inspected in bit-reversal order and the first fully free set is
// taken; when none is free but enough slots are, the table is
// defragmented first and the request takes the first free set of the
// canonical layout.  So, under the paper's policy, it returns
// ErrNoSpace exactly when fewer slots are free than the request needs.
// The pointer returned is into the allocator's list (see Lookup for how
// long it describes the sequence).
func (a *Allocator) Allocate(vl uint8, distance, weight int) (*Sequence, error) {
	if vl >= arbtable.NumDataVLs {
		return nil, errNotDataVL(vl)
	}
	stride, _, err := Shape(distance, weight)
	if err != nil {
		return nil, err
	}
	j, relocate, err := a.fit(stride)
	if err != nil {
		return nil, err
	}
	return a.placeFresh(vl, stride, j, relocate, weight), nil
}

// placeFresh carries out fit's answer: it defragments when the answer
// needs relocation, then places a fresh sequence at start, which must be
// free by then.
func (a *Allocator) placeFresh(vl uint8, stride, start int, relocate bool, weight int) *Sequence {
	if stride == 0 {
		panic("core: placing a fresh sequence of no stride")
	}
	if relocate {
		a.Defragment()
	}
	if a.occ&setMask(stride, start) != 0 {
		panic(fmt.Sprintf("core: placing stride %d at %d, which is not free", stride, start))
	}
	return a.add(vl, stride, start, weight)
}

// add places a fresh sequence at a start offset whose candidate set is
// free.  IDs ascend, so appending keeps the list sorted.
func (a *Allocator) add(vl uint8, stride, start, weight int) *Sequence {
	a.live = append(a.live, Sequence{
		ID: a.nextID, VL: vl, Stride: stride, Start: uint8(start),
		Count: uint8(TableSize / stride), Weight: uint16(weight), Conns: 1,
	})
	a.nextID++
	a.total += weight
	s := &a.live[len(a.live)-1]
	a.place(s)
	return s
}

// place claims the sequence's slots in the occupancy word and writes
// them to the arbitration table, distributing its table weight as
// evenly as possible (every slot gets at least one unit).  Every slot
// changes: it was free, or (from reweight) its share moves by a unit or
// more.
func (a *Allocator) place(s *Sequence) {
	a.occ |= s.mask()
	a.written.touch(s.blocks())
	w, n := s.tableWeight(), int(s.Count)
	base := w / n
	extra := w % n
	for k := 0; k < n; k++ {
		ew := base
		if k < extra {
			ew++
		}
		a.table.High[int(s.Start)+k*s.Stride] = arbtable.Entry{VL: s.VL, Weight: uint8(ew)}
	}
}

// unplace clears the sequence's slots from the occupancy word and the
// table.
func (a *Allocator) unplace(s *Sequence) {
	a.occ &^= s.mask()
	a.written.touch(s.blocks())
	for pos := int(s.Start); pos < TableSize; pos += s.Stride {
		a.table.High[pos] = arbtable.Entry{}
	}
}

// reweight rewrites the entries of a live sequence whose table weight
// was old before its weight changed.  Entry k of a sequence of C slots
// and table weight T holds ceil((T-k)/C), so moving T by one unit moves
// exactly one entry by one: adding raises entry T mod C, removing lowers
// entry (T-1) mod C.  A change of D < C units therefore moves the D
// entries from min(old, T) mod C on, cyclically, each by one; a change
// of C or more moves every entry, and the whole sequence is rewritten.
// Only the blocks of the entries written are marked.
func (a *Allocator) reweight(s *Sequence, old int) {
	w, n := s.tableWeight(), int(s.Count)
	d, lo := w-old, old
	if d < 0 {
		d, lo = -d, w
	}
	switch {
	case d == 0:
		return
	case d >= n:
		a.place(s)
		return
	}
	base, extra := w/n, w%n
	var blocks uint8
	k := lo % n
	for ; d > 0; d-- {
		pos := int(s.Start) + k*s.Stride
		ew := base
		if k < extra {
			ew++
		}
		a.table.High[pos].Weight = uint8(ew)
		blocks |= 1 << uint(pos/BlockEntries)
		if k++; k == n {
			k = 0
		}
	}
	a.written.touch(blocks)
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
	old := s.tableWeight()
	s.Weight += uint16(weight)
	s.Conns++
	a.total += weight
	a.reweight(s, old)
	return nil
}

// RemoveWeight deducts a finished connection's weight from a sequence.
// When the accumulated weight reaches zero the slots are freed and the
// sequence leaves the list, shifting the ones after it; no other
// sequence moves in the table (a later request that needs an aligned set
// relocates, see Allocate).  It reports whether the sequence was freed.
func (a *Allocator) RemoveWeight(id SeqID, weight int) (freed bool, err error) {
	i := a.find(id)
	if i < 0 {
		return false, ErrUnknownSeq
	}
	s := &a.live[i]
	if weight < 1 || weight > int(s.Weight) {
		return false, fmt.Errorf("core: cannot remove weight %d from sequence with weight %d", weight, s.Weight)
	}
	old := s.tableWeight()
	s.Weight -= uint16(weight)
	a.total -= weight
	if s.Conns > 0 {
		s.Conns--
	}
	if s.Weight == 0 {
		a.unplace(s)
		a.live = append(a.live[:i], a.live[i+1:]...)
		return true, nil
	}
	a.reweight(s, old)
	return false, nil
}

// Defragment relocates live sequences to the lowest free bit-reversal
// ranks, largest sequences first, ties by ID: the canonical layout.
// After it runs, the free slots contain a fully free aligned candidate
// set of every power-of-two size up to the number of free slots, and
// its occupancy word is canonOcc of the occupied count.  A request that
// finds no free set runs it (Allocate, PortTable.Prepare).  It returns
// the number of sequences that moved.
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
	var newStart [TableSize]uint8 // by position in live
	_, moved := a.canonical(&newStart)
	if moved == 0 {
		return 0
	}
	for w := moved; w != 0; w &= w - 1 {
		a.unplace(&a.live[bits.TrailingZeros64(w)])
	}
	for w := moved; w != 0; w &= w - 1 {
		i := bits.TrailingZeros64(w)
		a.live[i].Start = newStart[i]
		a.place(&a.live[i])
	}
	moves = bits.OnesCount64(moved)
	a.moves += moves
	return moves
}

// canonical computes Defragment's placement without writing it: the
// occupancy of the canonical layout, and the live sequences (bit i for
// live[i]) whose start differs there, with each one's new start in
// newStart.
func (a *Allocator) canonical(newStart *[TableSize]uint8) (occ, moved uint64) {
	var class [numStrides]uint64 // bit i: live[i] is of that stride class
	for i := range a.live {
		class[bits.TrailingZeros(uint(a.live[i].Stride))] |= 1 << uint(i)
	}
	// Strides 2 up to 64: sequences of 32 slots down to 1.
	for c := 1; c < numStrides; c++ {
		for w := class[c]; w != 0; w &= w - 1 {
			i := bits.TrailingZeros64(w)
			j, ok := BitReversal.firstFit(occ, c)
			if !ok {
				// Cannot happen: the same sequences fit before.
				panic("core: defragmentation failed to place a live sequence")
			}
			occ |= strideMask[c] << uint(j)
			if j != int(a.live[i].Start) {
				newStart[i] = uint8(j)
				moved |= 1 << uint(i)
			}
		}
	}
	return occ, moved
}

// TotalMoves returns the cumulative number of sequence relocations
// performed by defragmentation.
func (a *Allocator) TotalMoves() int { return a.moves }

// CanAllocate reports whether a request with the given distance and
// weight would currently succeed, after relocation if it needs one.
func (a *Allocator) CanAllocate(distance, weight int) bool {
	stride, _, err := Shape(distance, weight)
	if err != nil {
		return false
	}
	_, _, err = a.fit(stride)
	return err == nil
}

// checkInvariants verifies the allocator's internal consistency and
// the paper's two guarantees: its allocation theorem and the distance
// bound of every live sequence.  It is used by tests and by the
// simulator's self-checks, including after every rolled-back hop of an
// aborted admission, so it does not allocate.
func (a *Allocator) checkInvariants() error {
	// 1. The table agrees with the sequence records, and the derived
	// state — the ID order of the live list, the occupancy word, the
	// running weight total — agrees with what the records imply.  The
	// distance guarantee, read off the table as the arbiter sees it: a
	// lane's consecutive entries are never further apart than the stride
	// of any live sequence on it.  The table check implies it; it is
	// stated here so that no caller has to re-derive it.
	var owned uint64
	var prev SeqID
	weight := 0
	for i := range a.live {
		s := &a.live[i]
		if s.ID <= prev {
			return fmt.Errorf("live list out of ID order at sequence %d (after %d)", s.ID, prev)
		}
		prev = s.ID
		if int(s.Count)*s.Stride != TableSize {
			return fmt.Errorf("sequence %v: count*stride != %d", s, TableSize)
		}
		if int(s.Start) >= s.Stride {
			return fmt.Errorf("sequence %v: start outside [0,stride)", s)
		}
		if s.Weight < 1 || int(s.Weight) > s.capacity() {
			return fmt.Errorf("sequence %v: weight out of range", s)
		}
		weight += int(s.Weight)
		m := s.mask()
		if both := owned & m; both != 0 {
			return fmt.Errorf("slot %d claimed by two sequences", bits.TrailingZeros64(both))
		}
		owned |= m
		sum := 0
		for pos := int(s.Start); pos < TableSize; pos += s.Stride {
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
		if gap := a.table.MaxGap(s.VL); gap > s.Stride {
			return fmt.Errorf("VL %d max gap %d exceeds stride %d of sequence %d", s.VL, gap, s.Stride, s.ID)
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
	// 2. The allocation theorem, a statement about requests: for every
	// power-of-two size up to the free-slot count a request is granted,
	// at once or after relocation, and the canonical layout that
	// relocation produces — Defragment's placement, which must occupy
	// canonOcc of the occupied count — holds a free aligned set of that
	// size.  Only the paper's policy provides it.
	if !a.policy.natural {
		free := a.FreeSlots()
		var newStart [TableSize]uint8
		canon, _ := a.canonical(&newStart)
		if want := canonOcc[TableSize-free]; canon != want {
			return fmt.Errorf("canonical layout occupies %016x, want %016x for %d occupied slots", canon, want, TableSize-free)
		}
		for n := 1; n <= free && n <= MaxSeqSlots; n *= 2 {
			c := bits.TrailingZeros(uint(TableSize / n))
			if _, _, err := a.fit(TableSize / n); err != nil {
				return fmt.Errorf("theorem violated: %d slots free but a request of %d refused: %v", free, n, err)
			}
			if _, ok := BitReversal.firstFit(canon, c); !ok {
				return fmt.Errorf("theorem violated: %d slots free but the canonical layout has no free set of size %d", free, n)
			}
		}
	}
	return nil
}
