package arbtable

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

// This file keeps the retired high-table walk as the reference the
// word-wide arbiter is compared against: peekReference is the entry
// walk Pick used for both tables before the slot masks, pickReference
// the Pick body around it.  Neither reads Arbiter.hiSlots.

// peekReference walks the table cyclically from the cursor, one entry
// and one modulo per step.
func peekReference(entries []Entry, st *wrrState, ready *Ready) (ch choice, visited int, ok bool) {
	if len(entries) == 0 {
		return choice{}, 0, false
	}
	if int(st.idx) >= len(entries) {
		st.idx, st.active = 0, false
	}
	if st.active && st.residual > 0 {
		e := entries[st.idx]
		if !e.IsFree() && ready[e.VL] > 0 {
			return choice{entry: int(st.idx), vl: int(e.VL), fresh: false}, 1, true
		}
	}
	start := int(st.idx)
	if st.active {
		start++
	}
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

// pickReference is Arbiter.Pick with both tables walked by
// peekReference.  It keeps Pick's rule for when the low table is read —
// only when the high walk finds nothing or the high allowance is used
// up, with a shrunken low table's cursor restarted on every pick — so
// that EntriesVisited and the low cursor compare exactly.
func pickReference(a *Arbiter, ready *Ready) (vl int, high bool, ok bool) {
	if v := a.table.Version(); v != a.seen {
		a.seen = v
		a.hi.active = false
		a.hi.residual = 0
		a.reanchors++
	}
	if n := len(a.table.Low); n > 0 && int(a.lo.idx) >= n {
		a.lo.idx, a.lo.active = 0, false
	}
	hiCh, hiN, hiOK := peekReference(a.table.High[:], &a.hi, ready)
	var loCh choice
	loN, loOK := 0, false
	if !hiOK || a.limitExceeded() {
		loCh, loN, loOK = peekReference(a.table.Low, &a.lo, ready)
	}
	if m := a.m; m != nil {
		m.EntriesVisited += int64(hiN + loN)
	}
	switch {
	case hiOK && (!loOK || !a.limitExceeded()):
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

// script feeds the differential driver its decisions; an exhausted
// script reads as zeros and reports done.
type script struct {
	data []byte
	pos  int
}

func (s *script) next() byte {
	if s.pos >= len(s.data) {
		s.pos++
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return b
}

func (s *script) done() bool { return s.pos >= len(s.data) }

// highTable reads a whole high table, two bytes per slot: VL (15 reads
// as a free slot) and raw weight, so zero-weight entries naming a VL
// and lanes holding many slots both occur.
func (s *script) highTable() (high [TableSize]Entry) {
	for i := range high {
		vl, w := s.next()%NumVLs, s.next()
		if vl < NumDataVLs {
			high[i] = Entry{VL: vl, Weight: w}
		}
	}
	return high
}

// runArbiterDifferential drives the word-wide arbiter and the reference
// walk over ONE table with one script and compares everything
// observable, and the round-robin state behind it, after every call.
// The script's head is the initial high table, written directly before
// the arbiters attach; every later high-table change goes through Swap.
func runArbiterDifferential(t *testing.T, data []byte) {
	t.Helper()
	s := &script{data: data}
	tb := New(2)
	tb.High = s.highTable()
	idx, ref := NewArbiter(tb), NewArbiter(tb)
	var idxC, refC metrics.ArbCounters
	idx.SetMetrics(&idxC)
	ref.SetMetrics(&refC)

	for call := 0; !s.done(); {
		var ready Ready
		switch op := s.next() % 16; op {
		case 0:
			tb.Swap(s.highTable())
			continue
		case 1:
			tb.Low = append(tb.Low, Entry{VL: s.next() % NumDataVLs, Weight: s.next()})
			continue
		case 2:
			if len(tb.Low) > 1 {
				tb.Low = tb.Low[:1]
			}
			continue
		case 3:
			tb.Low = nil
			continue
		case 4:
			if n := len(tb.Low); n > 0 {
				tb.Low[int(s.next())%n].Weight = s.next()
			}
			continue
		case 5:
			tb.Limit = [...]uint8{0, 2, UnlimitedHigh}[s.next()%3]
			continue
		case 6:
			// all idle
		case 7:
			ready[s.next()%NumDataVLs] = 1 + int(s.next())*17
		default:
			lanes := uint16(s.next()) | uint16(s.next())<<8
			size := 1 + int(s.next())*17
			for vl := range ready {
				if lanes>>uint(vl)&1 != 0 {
					ready[vl] = size + 37*vl
				}
			}
		}
		call++
		vl, high, ok := idx.Pick(&ready)
		rvl, rhigh, rok := pickReference(ref, &ready)
		if vl != rvl || high != rhigh || ok != rok {
			t.Fatalf("call %d ready %v on %v: Pick = (%d,%v,%v), reference (%d,%v,%v)",
				call, ready, tb, vl, high, ok, rvl, rhigh, rok)
		}
		if ok && idx.Last() != ref.Last() {
			t.Fatalf("call %d: Last = %+v, reference %+v", call, idx.Last(), ref.Last())
		}
		if idx.hiSinceLow != ref.hiSinceLow || idx.reanchors != ref.reanchors {
			t.Fatalf("call %d: hiSinceLow/reanchors = %d/%d, reference %d/%d", call,
				idx.hiSinceLow, idx.reanchors, ref.hiSinceLow, ref.reanchors)
		}
		if idx.hi != ref.hi || idx.lo != ref.lo {
			t.Fatalf("call %d: state hi %+v lo %+v, reference hi %+v lo %+v", call, idx.hi, idx.lo, ref.hi, ref.lo)
		}
		if idxC != refC {
			t.Fatalf("call %d ready %v on %v: counters %+v, reference %+v", call, ready, tb, idxC, refC)
		}
		if err := idx.CheckIndex(); err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
	}
}

// benchProbeScript is the table of the arbiter probes in bench/ and of
// TestAllocBudgetArbiterPick — core.Allocator's layout for eight Allocate(i, 8,
// 100+i) sequences (VL i on the eight slots congruent to the 3-bit
// reversal of i, its weight spread ceil-first) plus two low entries —
// followed by picks.  core cannot be imported from here.
func benchProbeScript() []byte {
	var data []byte
	for slot := 0; slot < TableSize; slot++ {
		vl := int(bits.Reverse8(uint8(slot%8)) >> 5)
		w := (100 + vl) / 8
		if slot/8 < (100+vl)%8 {
			w++
		}
		data = append(data, byte(vl), byte(w))
	}
	data = append(data, 1, 10, 8, 1, 11, 4) // Low = {VL10*8, VL11*4}
	for i := 0; i < 64; i++ {
		data = append(data, 8, 0xff, 0x0c, 16) // VLs 0-7, 10, 11 ready, 273 bytes and up
		data = append(data, 6)                 // nothing ready
		data = append(data, 7, byte(i), 16)    // one lane
	}
	return data
}

// limitedProbeScript is benchProbeScript with LimitOfHighPriority 0 set
// before the picks: every high-table packet uses the allowance up, so a
// pick with a low lane ready must scan the low table and serve it.
func limitedProbeScript() []byte {
	s := benchProbeScript()
	head := 2*TableSize + 6 // the high table and the two low entries
	return append(append(s[:head:head], 5, 0), s[head:]...)
}

func TestBenchProbeScriptTable(t *testing.T) {
	s := &script{data: benchProbeScript()}
	tb := &Table{High: s.highTable()}
	for vl := 0; vl < 8; vl++ {
		if g, w := tb.MaxGap(uint8(vl)), tb.HighWeightForVL(uint8(vl)); g != 8 || w != 100+vl {
			t.Errorf("VL %d: max gap %d weight %d, want 8 and %d", vl, g, w, 100+vl)
		}
	}
	for i, e := range tb.High {
		if e.IsFree() {
			t.Errorf("slot %d free, want a full table", i)
		}
	}
}

// TestArbiterIndexDifferential: random scripts — random tables with
// free and zero-weight slots and lanes spread over many slots, swaps in
// the middle of an allowance, low tables that grow, shrink to one
// entry and vanish, every Limit class, idle and single-lane ready
// vectors — make the same decisions, state and counters on the slot
// masks as on the 64-entry walk.
func TestArbiterIndexDifferential(t *testing.T) {
	runArbiterDifferential(t, benchProbeScript())
	runArbiterDifferential(t, limitedProbeScript())
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 2*TableSize+rng.Intn(4096))
		rng.Read(data)
		// A third of the trials start from a sparse table: most slots
		// free, so stalls and long rotations are common.
		if trial%3 == 0 {
			for i := 0; i < 2*TableSize; i += 2 {
				if rng.Intn(8) != 0 {
					data[i] = MgmtVL
				}
			}
		}
		runArbiterDifferential(t, data)
	}
}

// FuzzArbiterPick is the same comparison over fuzzer-chosen scripts.
func FuzzArbiterPick(f *testing.F) {
	f.Add(benchProbeScript())
	f.Add(limitedProbeScript())
	f.Add([]byte{})
	f.Add(append(make([]byte, 2*TableSize), 8, 0xff, 0x7f, 3, 0, 6, 5, 0, 1, 3, 9, 8, 1, 0, 200))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			t.Skip("script longer than any seed needs")
		}
		runArbiterDifferential(t, data)
	})
}

// TestArbiterIndexSkipsOutOfRangeVL: a high entry with weight naming a
// VL outside the data range, swapped in, must be passed over, not index
// Ready out of bounds.
func TestArbiterIndexSkipsOutOfRangeVL(t *testing.T) {
	tb := New(UnlimitedHigh)
	tb.High[0] = Entry{VL: 1, Weight: 1}
	a := NewArbiter(tb)
	if vl, _, ok := a.Pick(readyFor(WeightUnit, 1)); !ok || vl != 1 {
		t.Fatalf("warm-up pick: vl=%d ok=%v", vl, ok)
	}

	var high [TableSize]Entry
	high[0] = Entry{VL: MgmtVL, Weight: 9}
	high[1] = Entry{VL: 200, Weight: 9}
	high[5] = Entry{VL: 3, Weight: 1}
	tb.Swap(high)
	for i := 0; i < 3; i++ {
		vl, hi, ok := a.Pick(readyFor(WeightUnit, 1, 3))
		if !ok || vl != 3 || !hi || a.Last().Entry != 5 {
			t.Fatalf("pick %d: vl=%d high=%v ok=%v entry=%d, want VL 3 from high[5]", i, vl, hi, ok, a.Last().Entry)
		}
	}
	if vl, _, ok := a.Pick(readyFor(WeightUnit, 1)); ok {
		t.Fatalf("picked VL %d, which no valid entry names", vl)
	}
	if err := a.CheckIndex(); err != nil {
		t.Errorf("CheckIndex after a sanctioned swap: %v", err)
	}
}

// TestArbiterCheckIndex: a high table written behind an attached
// arbiter's back is reported; the same change through Swap is not,
// before or after the arbiter re-anchors on it.
func TestArbiterCheckIndex(t *testing.T) {
	tb := New(UnlimitedHigh)
	tb.High[0] = Entry{VL: 0, Weight: 4}
	a := NewArbiter(tb)
	if err := a.CheckIndex(); err != nil {
		t.Fatalf("fresh arbiter: %v", err)
	}
	tb.High[0].Weight = 9 // still occupied by VL 0: the masks hold
	if err := a.CheckIndex(); err != nil {
		t.Fatalf("weight change on an occupied slot: %v", err)
	}

	tb.High[7] = Entry{VL: 2, Weight: 1}
	if err := a.CheckIndex(); err == nil {
		t.Fatal("direct write of a new high entry not reported")
	}

	next := tb.High
	tb.High[7] = Entry{}
	tb.Swap(next)
	if err := a.CheckIndex(); err != nil {
		t.Fatalf("swap not yet picked under: %v", err)
	}
	if vl, _, ok := a.Pick(readyFor(WeightUnit, 2)); !ok || vl != 2 {
		t.Fatalf("post-swap pick: vl=%d ok=%v, want VL 2", vl, ok)
	}
	if err := a.CheckIndex(); err != nil {
		t.Fatalf("after re-anchor: %v", err)
	}
}
