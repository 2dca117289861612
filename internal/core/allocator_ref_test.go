package core

import (
	"fmt"
	"sort"

	"repro/internal/arbtable"
	"repro/internal/bitrev"
)

// refAllocator is the allocator as it stood before occupancy became a
// 64-bit word: slot ownership in an array of sequence IDs walked entry
// by entry, the live sequences in a map, a sort-based defragmenter and
// a reserved weight summed over the map on every call.  It is kept as
// the reference the differential tests (TestAllocatorMaskDifferential,
// FuzzAllocatorTrace) drive in lock-step with Allocator; it computes
// its inspection orders itself so it shares no table with the code
// under test.
type refAllocator struct {
	table    *arbtable.Table
	natural  bool             // NaturalOrder: offsets 0,1,2,... and no defragmentation
	occupied [TableSize]SeqID // 0 = free
	seqs     map[SeqID]*Sequence
	byVL     [arbtable.NumDataVLs][]*Sequence
	nextID   SeqID
	moves    int
}

func newRefAllocator(p Policy) *refAllocator {
	return &refAllocator{
		table:   arbtable.New(arbtable.UnlimitedHigh),
		natural: p.Name == NaturalOrder.Name,
		seqs:    make(map[SeqID]*Sequence),
		nextID:  1,
	}
}

func refLog2(n int) int {
	b := 0
	for 1<<uint(b) < n {
		b++
	}
	return b
}

func (a *refAllocator) order(stride int) []int {
	if !a.natural {
		return bitrev.Order(refLog2(stride))
	}
	out := make([]int, stride)
	for i := range out {
		out[i] = i
	}
	return out
}

func (a *refAllocator) freeSlots() int {
	n := 0
	for _, id := range a.occupied {
		if id == 0 {
			n++
		}
	}
	return n
}

func (a *refAllocator) totalWeight() int {
	w := 0
	for _, s := range a.seqs {
		w += s.Weight
	}
	return w
}

func (a *refAllocator) sequences() []*Sequence {
	out := make([]*Sequence, 0, len(a.seqs))
	for _, s := range a.seqs {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (a *refAllocator) setFree(stride, start int) bool {
	for k := start; k < TableSize; k += stride {
		if a.occupied[k] != 0 {
			return false
		}
	}
	return true
}

func (a *refAllocator) allocate(vl uint8, distance, weight int) (*Sequence, error) {
	if vl >= arbtable.NumDataVLs {
		return nil, fmt.Errorf("core: VL %d is not a data VL", vl)
	}
	stride, count, err := Shape(distance, weight)
	if err != nil {
		return nil, err
	}
	for _, j := range a.order(stride) {
		if !a.setFree(stride, j) {
			continue
		}
		s := &Sequence{
			ID: a.nextID, VL: vl,
			Stride: stride, Start: j, Count: count,
			Weight: weight, Conns: 1,
		}
		a.nextID++
		a.seqs[s.ID] = s
		a.byVL[vl] = append(a.byVL[vl], s)
		a.place(s)
		return s, nil
	}
	return nil, fmt.Errorf("%w (need %d slots at stride %d, %d free)",
		ErrNoSpace, count, stride, a.freeSlots())
}

func (a *refAllocator) place(s *Sequence) {
	w := s.tableWeight()
	base := w / s.Count
	extra := w % s.Count
	for k := 0; k < s.Count; k++ {
		pos := s.Start + k*s.Stride
		a.occupied[pos] = s.ID
		ew := base
		if k < extra {
			ew++
		}
		a.table.High[pos] = arbtable.Entry{VL: s.VL, Weight: uint8(ew)}
	}
}

func (a *refAllocator) unplace(s *Sequence) {
	for k := 0; k < s.Count; k++ {
		pos := s.Start + k*s.Stride
		a.occupied[pos] = 0
		a.table.High[pos] = arbtable.Entry{}
	}
}

func (a *refAllocator) addWeight(id SeqID, weight int) error {
	s := a.seqs[id]
	if s == nil {
		return ErrUnknownSeq
	}
	if weight < 1 {
		return ErrBadWeight
	}
	if weight > s.Spare() {
		return fmt.Errorf("core: sequence %d has spare %d, need %d", id, s.Spare(), weight)
	}
	s.Weight += weight
	s.Conns++
	a.place(s)
	return nil
}

func (a *refAllocator) removeWeight(id SeqID, weight int, defrag bool) (freed bool, err error) {
	s := a.seqs[id]
	if s == nil {
		return false, ErrUnknownSeq
	}
	if weight < 1 || weight > s.Weight {
		return false, fmt.Errorf("core: cannot remove weight %d from sequence with weight %d", weight, s.Weight)
	}
	s.Weight -= weight
	if s.Conns > 0 {
		s.Conns--
	}
	if s.Weight == 0 {
		a.unplace(s)
		delete(a.seqs, id)
		idx := a.byVL[s.VL]
		for i, cand := range idx {
			if cand.ID == s.ID {
				a.byVL[s.VL] = append(idx[:i], idx[i+1:]...)
				break
			}
		}
		if defrag {
			a.defragment()
		}
		return true, nil
	}
	a.place(s)
	return false, nil
}

func (a *refAllocator) defragment() (moves int) {
	seqs := a.sequences()
	// Largest first; ties broken by ID for determinism.
	sort.SliceStable(seqs, func(i, j int) bool { return seqs[i].Count > seqs[j].Count })

	var shadow [TableSize]SeqID
	free := func(stride, start int) bool {
		for k := start; k < TableSize; k += stride {
			if shadow[k] != 0 {
				return false
			}
		}
		return true
	}
	newStart := make(map[SeqID]int, len(seqs))
	for _, s := range seqs {
		placed := false
		for _, j := range bitrev.Order(refLog2(s.Stride)) {
			if !free(s.Stride, j) {
				continue
			}
			for k := j; k < TableSize; k += s.Stride {
				shadow[k] = s.ID
			}
			newStart[s.ID] = j
			placed = true
			break
		}
		if !placed {
			panic("core: reference defragmentation failed to place a live sequence")
		}
	}
	for _, s := range seqs {
		if newStart[s.ID] != s.Start {
			moves++
		}
	}
	a.moves += moves
	if moves == 0 {
		return 0
	}
	a.occupied = shadow
	for i := range a.table.High {
		a.table.High[i] = arbtable.Entry{}
	}
	for _, s := range seqs {
		s.Start = newStart[s.ID]
		a.place(s)
	}
	return moves
}

func (a *refAllocator) canAllocate(distance, weight int) bool {
	stride, _, err := Shape(distance, weight)
	if err != nil {
		return false
	}
	for _, j := range a.order(stride) {
		if a.setFree(stride, j) {
			return true
		}
	}
	return false
}

// reserve, release and rollback are PortTable's sequence-sharing layer
// over the reference allocator.
func (a *refAllocator) reserve(vl uint8, distance, weight int) (Reservation, error) {
	if _, _, err := Shape(distance, weight); err != nil {
		return Reservation{}, err
	}
	if vl < arbtable.NumDataVLs {
		for _, s := range a.byVL[vl] {
			if s.Stride > distance || s.Spare() < weight {
				continue
			}
			if err := a.addWeight(s.ID, weight); err != nil {
				return Reservation{}, err
			}
			return Reservation{Seq: s.ID, Weight: weight}, nil
		}
	}
	s, err := a.allocate(vl, distance, weight)
	if err != nil {
		return Reservation{}, err
	}
	return Reservation{Seq: s.ID, Weight: weight}, nil
}

func (a *refAllocator) release(r Reservation) error {
	_, err := a.removeWeight(r.Seq, r.Weight, !a.natural)
	return err
}

func (a *refAllocator) rollback(r Reservation) error {
	_, err := a.removeWeight(r.Seq, r.Weight, false)
	return err
}
