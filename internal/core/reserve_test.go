package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/arbtable"
)

func newPort() *PortTable {
	return NewPortTable(arbtable.New(arbtable.UnlimitedHigh))
}

func TestReserveSharesSequence(t *testing.T) {
	p := newPort()
	r1, err := p.Reserve(0, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Reserve(0, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Seq != r2.Seq {
		t.Errorf("same-VL connections got different sequences %d and %d", r1.Seq, r2.Seq)
	}
	s := p.Allocator().Lookup(r1.Seq)
	if s.Weight != 200 || s.Conns != 2 {
		t.Errorf("shared sequence = %v, want weight 200 conns 2", s)
	}
	// Only one sequence's worth of slots should be used.
	if free := p.Allocator().FreeSlots(); free != TableSize-8 {
		t.Errorf("free slots = %d, want %d", free, TableSize-8)
	}
}

// The join path — a connection sharing an existing sequence of its VL
// — is the hot path of admission under churn: it runs once per hop of
// every arriving connection.  It must not allocate; the per-VL live
// index exists so Reserve never builds the sorted all-VL snapshot
// that Sequences() returns.
func TestReserveJoinDoesNotAllocate(t *testing.T) {
	p := newPort()
	// Anchor sequences on several VLs so the index is non-trivial.
	for vl := uint8(0); vl < 4; vl++ {
		if _, err := p.Reserve(vl, 8, 100); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		r, err := p.Reserve(2, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Release(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("join path allocates %.1f objects per op, want 0", allocs)
	}
}

func TestReserveSpillsToNewSequence(t *testing.T) {
	p := newPort()
	// Distance 64 -> 1 slot, capacity 255.
	r1, err := p.Reserve(5, 64, 200)
	if err != nil {
		t.Fatal(err)
	}
	// 56 more fits (255-200=55 spare is not enough): new sequence.
	r2, err := p.Reserve(5, 64, 56)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Seq == r2.Seq {
		t.Error("overflow connection shared a full sequence")
	}
	// A third small connection joins the first sequence (lowest ID with
	// spare 55).
	r3, err := p.Reserve(5, 64, 55)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Seq != r1.Seq {
		t.Errorf("small connection went to sequence %d, want %d", r3.Seq, r1.Seq)
	}
}

func TestReserveDoesNotShareAcrossVLs(t *testing.T) {
	p := newPort()
	r1, _ := p.Reserve(1, 32, 10)
	r2, err := p.Reserve(2, 32, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Seq == r2.Seq {
		t.Error("different VLs shared a sequence")
	}
}

func TestReserveRejectsInvalid(t *testing.T) {
	p := newPort()
	if _, err := p.Reserve(0, 5, 10); err == nil {
		t.Error("invalid distance accepted")
	}
	if _, err := p.Reserve(0, 8, 0); err == nil {
		t.Error("zero weight accepted")
	}
}

func TestReleaseFreesAndAllowsReuse(t *testing.T) {
	p := newPort()
	var rs []Reservation
	// Fill the table completely with distance-2 demands on two VLs.
	for vl := uint8(0); vl < 2; vl++ {
		r, err := p.Reserve(vl, 2, 500)
		if err != nil {
			t.Fatalf("VL%d: %v", vl, err)
		}
		rs = append(rs, r)
	}
	if _, err := p.Reserve(3, 64, 1); err == nil {
		t.Fatal("reservation in a full table succeeded")
	}
	if err := p.Release(rs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Reserve(3, 64, 1); err != nil {
		t.Errorf("reservation after release failed: %v", err)
	}
	if err := p.Allocator().checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestReleaseUnknown(t *testing.T) {
	p := newPort()
	if err := p.Release(Reservation{Hold: Hold{Seq: 12}, Weight: 5}); err == nil {
		t.Error("release of unknown reservation succeeded")
	}
}

// TestReleaseStaleHandle releases tokens whose sequence is gone: a
// double release, and a release after the sequence's record was reused
// for another one.  Each must fail with ErrUnknownSeq and leave the
// shadow table, the active table, the reserved weight and the port's
// audit as they were — the handle a token carries is checked, never
// trusted.
func TestReleaseStaleHandle(t *testing.T) {
	p := newPort()
	keep, err := p.Reserve(0, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	gone, err := p.Reserve(1, 16, 300)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Release(gone); err != nil {
		t.Fatal(err)
	}
	p.Apply()
	stale := func(what string, r Reservation) {
		t.Helper()
		shadow, active, weight := p.Allocator().Table().High, p.Active().High, p.ReservedWeight()
		if err := p.Release(r); !errors.Is(err, ErrUnknownSeq) {
			t.Fatalf("%s: %v, want ErrUnknownSeq", what, err)
		}
		switch {
		case p.Allocator().Table().High != shadow:
			t.Errorf("%s changed the shadow table", what)
		case p.Active().High != active:
			t.Errorf("%s changed the active table", what)
		case p.ReservedWeight() != weight:
			t.Errorf("%s: reserved weight %d, was %d", what, p.ReservedWeight(), weight)
		}
		if err := p.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}
	stale("double release", gone)
	// The next placement reuses the freed record under a new ID.
	reuse, err := p.Reserve(2, 16, 300)
	if err != nil {
		t.Fatal(err)
	}
	if reuse.seq != gone.seq || reuse.Seq == gone.Seq {
		t.Fatalf("placement after a free did not reuse its record: %+v after %+v", reuse, gone)
	}
	p.Apply()
	stale("release after the record was reused", gone)
	for _, r := range []Reservation{reuse, keep} {
		if err := p.Release(r); err != nil {
			t.Fatalf("release of live %+v: %v", r, err)
		}
	}
	if p.ReservedWeight() != 0 {
		t.Errorf("reserved weight %d after every live reservation was released", p.ReservedWeight())
	}
}

// TestPrepareRefusesStaleDecision carries out decisions the table has
// moved on from — a fresh placement whose candidate set was taken
// since, and a join whose sequence was freed and its record reused —
// and expects a panic, not a write.
func TestPrepareRefusesStaleDecision(t *testing.T) {
	p := newPort()
	fresh, err := p.Decide(0, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Reserve(1, 2, 100) // takes the set fresh decided on
	if err != nil {
		t.Fatal(err)
	}
	join, err := p.Decide(1, 2, 100)
	if err != nil || join.join == nil {
		t.Fatalf("Decide = %+v, %v; want a join", join, err)
	}
	if err := p.Release(r); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Reserve(2, 2, 100); err != nil { // reuses the joined record
		t.Fatal(err)
	}
	for name, d := range map[string]Decision{"fresh": fresh, "join": join, "zero": {}} {
		shadow := p.Allocator().Table().High
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Prepare of a stale decision did not panic", name)
				}
			}()
			p.Prepare(d)
		}()
		if p.Allocator().Table().High != shadow {
			t.Errorf("%s: a refused Prepare changed the table", name)
		}
	}
}

func TestReservedWeightAccounting(t *testing.T) {
	p := newPort()
	r1, _ := p.Reserve(0, 16, 120)
	r2, _ := p.Reserve(1, 16, 80)
	if w := p.ReservedWeight(); w != 200 {
		t.Errorf("reserved weight = %d, want 200", w)
	}
	p.Release(r1)
	if w := p.ReservedWeight(); w != 80 {
		t.Errorf("after release = %d, want 80", w)
	}
	p.Release(r2)
	if w := p.ReservedWeight(); w != 0 {
		t.Errorf("after both releases = %d, want 0", w)
	}
}

// TestReserveReleaseChurnQuick: random admission/teardown churn across
// many VLs keeps the allocator consistent and never leaks weight.
func TestReserveReleaseChurnQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := newPort()
		type conn struct {
			r Reservation
		}
		var live []conn
		expected := 0
		for i := 0; i < 150; i++ {
			if len(live) == 0 || rng.Intn(100) < 60 {
				vl := uint8(rng.Intn(10))
				d := Distances[rng.Intn(len(Distances))]
				w := 1 + rng.Intn(300)
				r, err := p.Reserve(vl, d, w)
				if err == nil {
					live = append(live, conn{r})
					expected += w
				}
			} else {
				i := rng.Intn(len(live))
				if err := p.Release(live[i].r); err != nil {
					return false
				}
				expected -= live[i].r.Weight
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if p.ReservedWeight() != expected {
				return false
			}
			if err := p.Allocator().checkInvariants(); err != nil {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestNewPortTablesKeepNeighboursApart: the port tables NewPortTables
// carves from shared slabs behave as separate objects.  An append to
// one port's shadow or active low list reallocates it rather than
// writing into the next port's list, and a reservation at one port
// changes no other port's tables.
func TestNewPortTablesKeepNeighboursApart(t *testing.T) {
	low := []arbtable.Entry{{VL: 11, Weight: 8}, {VL: 12, Weight: 4}, {VL: 13, Weight: 1}}
	pts := NewPortTables(3, 7, low)
	lows := func(p *PortTable) [][]arbtable.Entry {
		return [][]arbtable.Entry{p.Allocator().Table().Low, p.Active().Low}
	}
	for i, p := range pts {
		for _, l := range lows(p) {
			if !slices.Equal(l, low) {
				t.Fatalf("port %d low list %v, want %v", i, l, low)
			}
		}
		if p.Allocator().Table().Limit != 7 || p.Active().Limit != 7 {
			t.Fatalf("port %d limits %d/%d, want 7", i, p.Allocator().Table().Limit, p.Active().Limit)
		}
	}
	extra := arbtable.Entry{VL: 3, Weight: 9}
	shadow := pts[0].Allocator().Table()
	shadow.Low = append(shadow.Low, extra)
	pts[0].Active().Low = append(pts[0].Active().Low, extra)
	for i, p := range pts[1:] {
		for _, l := range lows(p) {
			if !slices.Equal(l, low) {
				t.Errorf("an append at port 0 changed port %d's low list to %v", i+1, l)
			}
		}
	}
	if _, err := pts[1].Reserve(2, 8, 100); err != nil {
		t.Fatal(err)
	}
	pts[1].Apply()
	for _, i := range []int{0, 2} {
		if w := pts[i].ReservedWeight(); w != 0 {
			t.Errorf("a reservation at port 1 reserved %d at port %d", w, i)
		}
		if pts[i].Allocator().Table().High != [TableSize]arbtable.Entry{} || pts[i].Active().High != [TableSize]arbtable.Entry{} {
			t.Errorf("a reservation at port 1 wrote port %d's tables", i)
		}
	}
	if got := NewPortTables(1, 0, nil)[0]; got.Allocator().Table().Low != nil || got.Active().Low != nil {
		t.Error("an empty low list is not nil, as NewPortTable's is")
	}
}
