package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arbtable"
)

// beginCopy is BeginProgram with the delta copied out of the staging
// record, so that a test may hold it past the transaction's end.
func beginCopy(p *PortTable) (Delta, error) {
	d, err := p.BeginProgram()
	if d == nil {
		return Delta{}, err
	}
	return *d, err
}

// deliverAll pushes every block of a delta into the port in order and
// returns the final applied flag.
func deliverAll(t *testing.T, p *PortTable, d Delta) bool {
	t.Helper()
	applied := false
	for _, b := range d.Blocks() {
		var err error
		applied, err = p.DeliverBlock(d.Version, b.Index, len(d.Blocks()), &b.Entries)
		if err != nil {
			t.Fatalf("block %d: %v", b.Index, err)
		}
	}
	return applied
}

func TestActiveLagsShadowUntilDelivered(t *testing.T) {
	p := newPort()
	if _, err := p.Reserve(3, 4, 500); err != nil {
		t.Fatal(err)
	}
	if !p.Dirty() {
		t.Fatal("reservation left shadow == active")
	}
	if p.Active().High != [TableSize]arbtable.Entry{} {
		t.Error("active table changed before any delta was programmed")
	}
	v0 := p.Active().Version()

	d, err := beginCopy(p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Version != v0+1 {
		t.Errorf("delta version %d, want %d", d.Version, v0+1)
	}
	if !p.Programming() {
		t.Error("port not programming after BeginProgram")
	}
	if !deliverAll(t, p, d) {
		t.Fatal("full delta did not apply")
	}
	if p.Dirty() || p.Programming() {
		t.Error("port still dirty/programming after apply")
	}
	if p.Active().Version() != v0+1 {
		t.Errorf("active version %d, want %d", p.Active().Version(), v0+1)
	}
	if p.Active().High != p.Allocator().Table().High {
		t.Error("active high table differs from shadow after apply")
	}
	if s := p.Stats(); s.Programs != 1 || s.Swaps != 1 || s.TornAborts != 0 {
		t.Errorf("stats = %+v", s)
	}
}

// TestPortTableCheckInvariants: an open transaction satisfies the state
// DeliverBlock's completion rule relies on, and breaking any one part of
// it — a complete staged set left open, the target version, the target
// outside the delta, the mismatch flag either way, the staging record
// dropped or still linked into the free list — fails the check.  So
// does the changed-block mask either way: a block that differs outside
// it, or a block it calls changed that equals the active table.
func TestPortTableCheckInvariants(t *testing.T) {
	p := newPort()
	// Distance 32 -> two slots, in blocks 0 and 2.
	if _, err := p.Reserve(1, 32, 10); err != nil {
		t.Fatal(err)
	}
	d, err := beginCopy(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Blocks()) != 2 || p.delta != 0b0101 {
		t.Fatalf("delta blocks %+v, mask %04b; want blocks 0 and 2", d.Blocks(), p.delta)
	}
	b := d.Blocks()[0]
	if _, err := p.DeliverBlock(d.Version, b.Index, 2, &b.Entries); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("open transaction: %v", err)
	}
	for name, mutate := range map[string]func(q *PortTable){
		"complete set left open": func(q *PortTable) { q.staged |= 0b0100 },
		"target version":         func(q *PortTable) { q.txn.ver++ },
		"target outside delta":   func(q *PortTable) { q.txn.target[3*BlockEntries] = arbtable.Entry{VL: 4, Weight: 1} },
		"mismatch flag set":      func(q *PortTable) { q.mismatch = true },
		"staged block unflagged": func(q *PortTable) { q.txn.ent[0][1] = arbtable.Entry{VL: 4, Weight: 1} },
		"staging dropped":        func(q *PortTable) { q.txn = nil },
		"staging on free list":   func(q *PortTable) { q.txn.next = new(staging) },
	} {
		q, txn := *p, *p.txn
		q.txn = &txn
		mutate(&q)
		if err := q.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants passed", name)
		}
	}
	if !deliverAll(t, p, d) {
		t.Fatal("delta did not apply")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("after the swap: %v", err)
	}
	held := *p
	held.txn = new(staging)
	if err := held.CheckInvariants(); err == nil {
		t.Error("staging held with no transaction open: CheckInvariants passed")
	}
	// The changed-block mask, with no program in flight: a write to the
	// shadow behind the allocator's back moves one unit of the
	// sequence's weight from its slot in block 2 to its slot in block 0.
	// The slots still sum to the sequence's weight, so the allocator's
	// own audit passes; the port's must name block 0, which differs from
	// the active table although the allocator never wrote it.
	shadow := &p.Allocator().Table().High
	saved := *shadow
	s := p.Allocator().Sequences()[0]
	shadow[s.Start].Weight++
	shadow[s.Start+2*BlockEntries].Weight--
	if err := p.Allocator().checkInvariants(); err != nil {
		t.Fatalf("shadow written behind the allocator's back: allocator audit %v, want it blind to the write", err)
	}
	if err := p.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "block 0 ") {
		t.Errorf("shadow written behind the allocator's back: CheckInvariants = %v, want it to name block 0", err)
	}
	*shadow = saved
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("shadow restored: %v", err)
	}
	// The other direction: a block the mask says one write changed must
	// differ from the programmed table.  Block 1 holds none of the
	// sequence's slots and equals the active table.
	p.alloc.written.touch(1 << 1)
	if err := p.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "block 1 ") {
		t.Errorf("block 1 marked changed but equal to the active table: CheckInvariants = %v, want it to name block 1", err)
	}
	// Marked twice, it may have reverted, and equality is allowed.
	p.alloc.written.touch(1 << 1)
	if err := p.CheckInvariants(); err != nil {
		t.Errorf("block 1 marked changed twice: %v", err)
	}
	p.alloc.written = 0
}

func TestBeginProgramDiffsChangedBlocksOnly(t *testing.T) {
	p := newPort()
	// Distance 64 -> a single slot in block 0.
	if _, err := p.Reserve(1, 64, 10); err != nil {
		t.Fatal(err)
	}
	d, err := beginCopy(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Blocks()) != 1 || d.Blocks()[0].Index != 0 {
		t.Fatalf("delta blocks = %+v, want exactly block 0", d.Blocks())
	}
	deliverAll(t, p, d)
}

func TestBeginProgramRejectsConcurrentTransaction(t *testing.T) {
	p := newPort()
	if _, err := p.Reserve(0, 8, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := p.BeginProgram(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.BeginProgram(); !errors.Is(err, ErrProgramInFlight) {
		t.Errorf("second BeginProgram = %v, want ErrProgramInFlight", err)
	}
}

func TestDeliverBlockOutOfOrderApplies(t *testing.T) {
	p := newPort()
	// Distance 2 touches all four blocks.
	if _, err := p.Reserve(2, 2, 800); err != nil {
		t.Fatal(err)
	}
	d, err := beginCopy(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Blocks()) != NumHighBlocks {
		t.Fatalf("delta has %d blocks, want %d", len(d.Blocks()), NumHighBlocks)
	}
	// Deliver in reverse: staging must be order-free.
	applied := false
	for i := len(d.Blocks()) - 1; i >= 0; i-- {
		b := d.Blocks()[i]
		var err error
		applied, err = p.DeliverBlock(d.Version, b.Index, len(d.Blocks()), &b.Entries)
		if err != nil {
			t.Fatal(err)
		}
		if applied != (i == 0) {
			t.Fatalf("applied=%v after delivering block %d", applied, b.Index)
		}
	}
	if p.Active().High != p.Allocator().Table().High {
		t.Error("reordered delivery corrupted the active table")
	}
}

func TestDeliverBlockTornAborts(t *testing.T) {
	reserveAndBegin := func(t *testing.T) (*PortTable, Delta) {
		t.Helper()
		p := newPort()
		if _, err := p.Reserve(2, 2, 800); err != nil {
			t.Fatal(err)
		}
		d, err := beginCopy(p)
		if err != nil {
			t.Fatal(err)
		}
		return p, d
	}

	t.Run("no transaction", func(t *testing.T) {
		p := newPort()
		var blk [BlockEntries]arbtable.Entry
		if _, err := p.DeliverBlock(1, 0, NumHighBlocks, &blk); !errors.Is(err, ErrTornUpdate) {
			t.Errorf("err = %v, want ErrTornUpdate", err)
		}
	})
	t.Run("version mismatch", func(t *testing.T) {
		p, d := reserveAndBegin(t)
		b := d.Blocks()[0]
		if _, err := p.DeliverBlock(d.Version+7, b.Index, len(d.Blocks()), &b.Entries); !errors.Is(err, ErrTornUpdate) {
			t.Errorf("err = %v, want ErrTornUpdate", err)
		}
		if p.Programming() {
			t.Error("transaction survived a torn update")
		}
		if p.Stats().TornAborts != 1 {
			t.Errorf("torn aborts = %d, want 1", p.Stats().TornAborts)
		}
	})
	t.Run("duplicate block with different content", func(t *testing.T) {
		p, d := reserveAndBegin(t)
		b := d.Blocks()[0]
		if _, err := p.DeliverBlock(d.Version, b.Index, len(d.Blocks()), &b.Entries); err != nil {
			t.Fatal(err)
		}
		mutated := b.Entries
		mutated[0].Weight ^= 0x7f
		if _, err := p.DeliverBlock(d.Version, b.Index, len(d.Blocks()), &mutated); !errors.Is(err, ErrTornUpdate) {
			t.Errorf("err = %v, want ErrTornUpdate", err)
		}
	})
	t.Run("total mismatch", func(t *testing.T) {
		p, d := reserveAndBegin(t)
		b := d.Blocks()[0]
		if _, err := p.DeliverBlock(d.Version, b.Index, len(d.Blocks())+1, &b.Entries); !errors.Is(err, ErrTornUpdate) {
			t.Errorf("err = %v, want ErrTornUpdate", err)
		}
	})

	// After any torn abort the shadow is still authoritative: a fresh
	// transaction must succeed and converge.
	t.Run("recovers", func(t *testing.T) {
		p, d := reserveAndBegin(t)
		b := d.Blocks()[0]
		if _, err := p.DeliverBlock(d.Version+1, b.Index, len(d.Blocks()), &b.Entries); err == nil {
			t.Fatal("torn update accepted")
		}
		d2, err := beginCopy(p)
		if err != nil {
			t.Fatal(err)
		}
		if !deliverAll(t, p, d2) {
			t.Fatal("retry did not apply")
		}
		if p.Active().High != p.Allocator().Table().High {
			t.Error("active != shadow after recovery")
		}
	})
}

// TestDeliverBlockDuplicateIdempotent is the retransmission-safety
// regression test: a duplicated commit SMP — delivered again either
// mid-transaction or after the transaction already swapped the active
// table — must be absorbed without a torn abort and without changing
// any state.  This is what makes blind retransmission by the in-band
// programmer safe.
func TestDeliverBlockDuplicateIdempotent(t *testing.T) {
	p := newPort()
	if _, err := p.Reserve(2, 2, 800); err != nil {
		t.Fatal(err)
	}
	d, err := beginCopy(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Blocks()) != NumHighBlocks {
		t.Fatalf("delta has %d blocks, want %d", len(d.Blocks()), NumHighBlocks)
	}

	// Mid-transaction duplicate with identical content: ignored.
	b0 := d.Blocks()[0]
	if _, err := p.DeliverBlock(d.Version, b0.Index, len(d.Blocks()), &b0.Entries); err != nil {
		t.Fatal(err)
	}
	if applied, err := p.DeliverBlock(d.Version, b0.Index, len(d.Blocks()), &b0.Entries); err != nil || applied {
		t.Fatalf("mid-transaction duplicate: applied=%v err=%v, want no-op", applied, err)
	}
	if !p.Programming() {
		t.Fatal("duplicate killed the transaction")
	}

	// Complete the transaction.
	applied := false
	for _, b := range d.Blocks()[1:] {
		if applied, err = p.DeliverBlock(d.Version, b.Index, len(d.Blocks()), &b.Entries); err != nil {
			t.Fatal(err)
		}
	}
	if !applied {
		t.Fatal("full delta did not apply")
	}
	swaps := p.Stats().Swaps

	// Post-commit duplicate of a committed block: the content is
	// already live, so it must be ignored — no abort, no extra swap.
	last := d.Blocks()[len(d.Blocks())-1]
	if applied, err := p.DeliverBlock(d.Version, last.Index, len(d.Blocks()), &last.Entries); err != nil || applied {
		t.Fatalf("post-commit duplicate: applied=%v err=%v, want no-op", applied, err)
	}
	if p.Programming() || p.Stats().Swaps != swaps || p.Stats().TornAborts != 0 {
		t.Errorf("post-commit duplicate disturbed port state: %+v", p.Stats())
	}
	if p.Active().High != p.Allocator().Table().High {
		t.Error("active != shadow after duplicate deliveries")
	}
}

// TestDeliverBlockStaleVersionIgnored: a straggler SMP of an older,
// finished (or abandoned) transaction arriving while a newer one is
// open must not tear the open transaction down.
func TestDeliverBlockStaleVersionIgnored(t *testing.T) {
	p := newPort()
	if _, err := p.Reserve(2, 2, 800); err != nil {
		t.Fatal(err)
	}
	d1, err := beginCopy(p)
	if err != nil {
		t.Fatal(err)
	}
	if !deliverAll(t, p, d1) {
		t.Fatal("first delta did not apply")
	}

	// Open a second transaction.
	if _, err := p.Reserve(3, 4, 300); err != nil {
		t.Fatal(err)
	}
	d2, err := beginCopy(p)
	if err != nil {
		t.Fatal(err)
	}

	// Straggler from transaction 1: ignored, transaction 2 survives.
	old := d1.Blocks()[0]
	if applied, err := p.DeliverBlock(d1.Version, old.Index, len(d1.Blocks()), &old.Entries); err != nil || applied {
		t.Fatalf("stale block: applied=%v err=%v, want no-op", applied, err)
	}
	if !p.Programming() {
		t.Fatal("stale block killed the open transaction")
	}
	if !deliverAll(t, p, d2) {
		t.Fatal("second delta did not apply after stale straggler")
	}
	if p.Active().High != p.Allocator().Table().High {
		t.Error("active != shadow after recovery")
	}
}

// TestCancelProgram: the coordinator's deadline abort discards staged
// state byte-identically and only for the version it names.
func TestCancelProgram(t *testing.T) {
	p := newPort()
	if _, err := p.Reserve(2, 2, 800); err != nil {
		t.Fatal(err)
	}
	d, err := beginCopy(p)
	if err != nil {
		t.Fatal(err)
	}
	activeBefore := p.Active().High
	b := d.Blocks()[0]
	if _, err := p.DeliverBlock(d.Version, b.Index, len(d.Blocks()), &b.Entries); err != nil {
		t.Fatal(err)
	}

	if p.CancelProgram(d.Version + 1) {
		t.Error("cancelled a transaction it does not own")
	}
	if !p.CancelProgram(d.Version) {
		t.Fatal("did not cancel the open transaction")
	}
	if p.Programming() {
		t.Error("still programming after cancel")
	}
	if p.Active().High != activeBefore {
		t.Error("cancel changed the active table (rollback not byte-identical)")
	}
	if p.CancelProgram(d.Version) {
		t.Error("second cancel succeeded")
	}

	// The shadow is untouched and authoritative: reprogramming after a
	// cancel must converge.
	d2, err := beginCopy(p)
	if err != nil {
		t.Fatal(err)
	}
	// The cancelled attempt never swapped, so the retry reuses its
	// version; stragglers of the cancelled attempt are absorbed by the
	// content-identity checks.
	if d2.Version != d.Version {
		t.Errorf("retry version %d, want %d", d2.Version, d.Version)
	}
	if !deliverAll(t, p, d2) {
		t.Fatal("retry did not apply")
	}
	if p.Active().High != p.Allocator().Table().High {
		t.Error("active != shadow after cancel + reprogram")
	}
}

// TestApplyMatchesDelivery: Apply is BeginProgram with every block of
// its delta delivered, in one step.  Twin ports run one random history
// of joins, fresh placements (relocating ones included), releases and
// explicit defragmentation; one is programmed with Apply,
// the other through the protocol, and after every programming both must
// agree on the active table bytes and version and on ReconfigStats.
// Apply on a port with a transaction in flight must change nothing.
func TestApplyMatchesDelivery(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := newPort(), newPort()
		same := func(op string) {
			t.Helper()
			switch {
			case a.Active().High != b.Active().High:
				t.Fatalf("seed %d, %s: active tables differ", seed, op)
			case a.Active().Version() != b.Active().Version():
				t.Fatalf("seed %d, %s: version %d, delivered %d", seed, op, a.Active().Version(), b.Active().Version())
			case a.Stats() != b.Stats():
				t.Fatalf("seed %d, %s: stats %+v, delivered %+v", seed, op, a.Stats(), b.Stats())
			case a.Programming() || b.Programming():
				t.Fatalf("seed %d, %s: a port is still programming", seed, op)
			}
		}
		var held [][2]Reservation
		applied := 0
		for i := 0; i < 3000; i++ {
			switch k := rng.Intn(100); {
			case k < 45:
				vl, d, w := uint8(rng.Intn(6)), Distances[rng.Intn(len(Distances))], 1+rng.Intn(3*arbtable.MaxWeight)
				ra, erra := a.Reserve(vl, d, w)
				rb, errb := b.Reserve(vl, d, w)
				if (erra == nil) != (errb == nil) || ra.Seq != rb.Seq || ra.Weight != rb.Weight {
					t.Fatalf("seed %d: twins diverged on Reserve: %v / %v", seed, erra, errb)
				}
				if erra == nil {
					held = append(held, [2]Reservation{ra, rb})
				}
			case k < 75:
				if len(held) > 0 {
					j := rng.Intn(len(held))
					if a.Release(held[j][0]) != nil || b.Release(held[j][1]) != nil {
						t.Fatalf("seed %d: release failed", seed)
					}
					held = append(held[:j], held[j+1:]...)
				}
			case k < 78:
				a.Allocator().Defragment()
				b.Allocator().Defragment()
			case k < 95:
				if a.Dirty() {
					applied++
				}
				a.Apply()
				if d, err := beginCopy(b); err != nil {
					t.Fatal(err)
				} else if len(d.Blocks()) > 0 {
					deliverAll(t, b, d)
				}
				same("Apply")
				if a.Dirty() {
					t.Fatalf("seed %d: Apply left the port dirty", seed)
				}
			default:
				// A transaction in flight on both: Apply must not touch it.
				da, err := beginCopy(a)
				if err != nil || len(da.Blocks()) == 0 {
					continue
				}
				db, _ := beginCopy(b)
				active, version, stats := a.Active().High, a.Active().Version(), a.Stats()
				a.Apply()
				if a.Active().High != active || a.Active().Version() != version || a.Stats() != stats || !a.Programming() {
					t.Fatalf("seed %d: Apply changed a port mid-reprogram", seed)
				}
				deliverAll(t, a, da)
				deliverAll(t, b, db)
				same("delivery after Apply mid-reprogram")
			}
		}
		if applied == 0 {
			t.Errorf("seed %d: the history never applied a change", seed)
		}
	}
}

// TestRollbackRestoresTableBytes: releasing the reservation a Prepare
// just made, one that did not relocate, restores the shadow table and
// the sequences byte for byte, as an aborting admission relies on.
func TestRollbackRestoresTableBytes(t *testing.T) {
	p := newPort()
	// Background load so defragmentation would have something to move.
	if _, err := p.Reserve(0, 8, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Reserve(1, 16, 60); err != nil {
		t.Fatal(err)
	}
	before := *p.Allocator().Table() // snapshot the full shadow table
	seqs := p.Allocator().Sequences()

	d, err := p.Decide(2, 4, 300)
	if err != nil || d.relocate {
		t.Fatalf("Decide = %+v, %v; want a placement without relocation", d, err)
	}
	if err := p.Release(p.Prepare(d)); err != nil {
		t.Fatal(err)
	}
	after := *p.Allocator().Table()
	if before.High != after.High {
		t.Error("rollback did not restore the high table byte-identically")
	}
	if err := p.Allocator().checkInvariants(); err != nil {
		t.Error(err)
	}
	got := p.Allocator().Sequences()
	if len(got) != len(seqs) {
		t.Fatalf("%d sequences after rollback, want %d", len(got), len(seqs))
	}
	for i := range got {
		if got[i].String() != seqs[i].String() {
			t.Errorf("sequence %d = %v, want %v", i, got[i], seqs[i])
		}
	}
}

// TestRollbackAfterRelocatingPrepare pins what releasing the
// reservation of a relocating Prepare leaves behind: the fresh sequence
// is gone, and the others stay where the relocation put them — the
// canonical layout of the sequences live before the Prepare, not the
// table as it was.  Decide itself writes nothing.
func TestRollbackAfterRelocatingPrepare(t *testing.T) {
	p := newPort()
	var held []Reservation
	for i := 0; i < 32; i++ { // fill the table with 2-slot sequences
		r, err := p.Reserve(uint8(i%14), 64, 256)
		if err != nil {
			t.Fatalf("reserve %d: %v", i, err)
		}
		held = append(held, r)
	}
	// Free every other one: 32 slots free, no 32-slot set among them.
	for i := 0; i < len(held); i += 2 {
		if err := p.Release(held[i]); err != nil {
			t.Fatal(err)
		}
	}
	a := p.Allocator()
	before, moves, survivors := a.Table().High, a.TotalMoves(), liveValues(a)
	d, err := p.Decide(0, 2, 32)
	if err != nil || !d.relocate {
		t.Fatalf("Decide = %+v, %v; want a placement after relocation", d, err)
	}
	if a.Table().High != before || a.TotalMoves() != moves {
		t.Fatal("Decide wrote the table")
	}
	r := p.Prepare(d)
	if err := relocatedLayout(t, a, survivors, r.Seq, moves); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(r); err != nil {
		t.Fatal(err)
	}
	canon, _ := canonicalLayout(t, survivors)
	switch {
	case a.Table().High == before:
		t.Error("the relocation was undone")
	case a.Table().High != canon.Table().High:
		t.Errorf("shadow table\n%v\ncanonical layout of the survivors\n%v", a.Table().High, canon.Table().High)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
