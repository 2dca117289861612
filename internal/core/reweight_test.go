package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arbtable"
)

// wholeSequence is the retired write of a join or leave: every entry of
// the sequence rewritten from its table weight, spread as evenly as
// possible with the first entries taking the remainder.  The table it
// builds from the live sequences is the reference for the entries
// reweight writes.
func wholeSequence(high *[TableSize]arbtable.Entry, s *Sequence) {
	w := s.tableWeight()
	for k := 0; k < s.Count; k++ {
		ew := w / s.Count
		if k < w%s.Count {
			ew++
		}
		high[s.Start+k*s.Stride] = arbtable.Entry{VL: s.VL, Weight: uint8(ew)}
	}
}

// differingBlocks returns the blocks in which two high tables differ.
func differingBlocks(x, y *[TableSize]arbtable.Entry) (mask uint8) {
	for b := 0; b < NumHighBlocks; b++ {
		if *highBlock(x, b) != *highBlock(y, b) {
			mask |= 1 << b
		}
	}
	return mask
}

// TestReweightMatchesWholeSequence drives a port through random
// join/leave histories at every stride — weights that cross a
// sequence's slot count (below it the table weight stays at one unit a
// slot) and fill its entries to 255 — with fresh placements, frees,
// relocations and the three ways a port is programmed mixed in.  After
// every step the shadow equals the table the whole-sequence write
// builds from the live sequences, and the changed-block mask is exact:
// a step that is one write (a join, a leave, a fresh placement, a free)
// marks exactly the blocks that differ from the table as it was before
// the step, once more each, and PortTable.CheckInvariants holds the
// mask to the programmed table both ways.
func TestReweightMatchesWholeSequence(t *testing.T) {
	for _, distance := range Distances {
		count := TableSize / distance
		t.Run(fmt.Sprintf("stride%d", distance), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				reweightHistory(t, rand.New(rand.NewSource(seed)), distance, count)
			}
		})
	}
}

func reweightHistory(t *testing.T, rng *rand.Rand, distance, count int) {
	t.Helper()
	p := newPort()
	a := p.Allocator()
	var held []Reservation
	weight := func() int {
		// Mostly a unit or two, so that a sequence's weight walks across
		// its slot count; sometimes up to the slot count, sometimes up
		// to a full sequence, so that entries reach 255.
		switch k := rng.Intn(4); {
		case k < 2:
			return 1 + rng.Intn(2)
		case k < 3:
			return 1 + rng.Intn(count)
		default:
			return 1 + rng.Intn(count*arbtable.MaxWeight)
		}
	}
	for step := 0; step < 1500; step++ {
		before, marks, moves := a.Table().High, a.written, a.TotalMoves()
		op := "join"
		switch k := rng.Intn(100); {
		case k < 50:
			r, err := p.Reserve(uint8(rng.Intn(3)), distance, weight())
			if err == nil {
				held = append(held, r)
			}
		case k < 90:
			if len(held) == 0 {
				continue
			}
			op = "leave"
			j := rng.Intn(len(held))
			if err := p.Release(held[j]); err != nil {
				t.Fatalf("step %d: release: %v", step, err)
			}
			held[j] = held[len(held)-1]
			held = held[:len(held)-1]
		case k < 95:
			op = "apply"
			p.Apply()
		case k < 98:
			op = "program"
			if d, err := beginCopy(p); err != nil {
				t.Fatal(err)
			} else if len(d.Blocks()) > 0 {
				deliverAll(t, p, d)
			}
		default:
			op = "cancel"
			if d, err := p.BeginProgram(); err != nil {
				t.Fatal(err)
			} else if d != nil && !p.CancelProgram(d.Version) {
				t.Fatalf("step %d: cancel refused", step)
			}
		}
		high := &a.Table().High
		var want [TableSize]arbtable.Entry
		for _, s := range a.Sequences() {
			wholeSequence(&want, s)
		}
		if *high != want {
			for pos := range high {
				if high[pos] != want[pos] {
					t.Fatalf("step %d (%s), distance %d: slot %d holds %+v, the whole-sequence write %+v", step, op, distance, pos, high[pos], want[pos])
				}
			}
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("step %d (%s), distance %d: %v", step, op, distance, err)
		}
		if (op == "join" || op == "leave") && a.TotalMoves() == moves {
			// One write: the blocks it changed are marked once more.
			exact := marks
			exact.touch(differingBlocks(&before, high))
			if a.written != exact {
				t.Fatalf("step %d (%s), distance %d: marks %08b, want %08b (changed blocks %04b over %08b)",
					step, op, distance, a.written, exact, differingBlocks(&before, high), marks)
			}
		}
	}
}
