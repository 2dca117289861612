package core

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/arbtable"
)

// The high-priority table travels between control plane and port as
// 16-entry blocks — the granularity of one VLArbitrationTable MAD
// attribute block in this repository's wire model.
const (
	// BlockEntries is the number of table entries per delta block.
	BlockEntries = 16
	// NumHighBlocks is the number of blocks covering the 64-slot
	// high-priority table.
	NumHighBlocks = TableSize / BlockEntries
)

// blockMarks is the changed-block mask of a high table: which of its
// blocks the allocator's writes changed since the port was last
// programmed, and which more than one write changed.  A write changes
// every block it marks — its entries move one way, from free to taken,
// taken to free, or by a whole unit of weight — so a block one write
// changed differs from the programmed table for certain, and only a
// block a second write changed may have reverted.  The two masks of the
// four blocks share one byte: bit b for a block changed once or more,
// bit NumHighBlocks+b for one changed more than once.
type blockMarks uint8

// allBlocks has a bit for every block of the high table.
const allBlocks = 1<<NumHighBlocks - 1

// The two masks must fit in one byte.
var _ [8 - 2*NumHighBlocks]struct{}

// touch records one write that changed the given blocks.
func (m *blockMarks) touch(blocks uint8) {
	*m |= blockMarks(uint8(*m)&blocks)<<NumHighBlocks | blockMarks(blocks)
}

// touched returns the blocks changed at least once: outside them the
// shadow equals the programmed table.
func (m blockMarks) touched() uint8 { return uint8(m) & allBlocks }

// differ returns the blocks changed exactly once, which differ from the
// programmed table.
func (m blockMarks) differ() uint8 { return uint8(m) & allBlocks &^ m.unsure() }

// unsure returns the blocks changed more than once, which may equal the
// programmed table again.
func (m blockMarks) unsure() uint8 { return uint8(m >> NumHighBlocks) }

// BlockDelta is one changed 16-entry block of the high table.
type BlockDelta struct {
	Index   int // block number, 0..NumHighBlocks-1
	Entries [BlockEntries]arbtable.Entry
}

// Delta is a staged changeset: the blocks of the high table that
// differ between the shadow (control-plane) and active (data-plane)
// views, tagged with the version the active table will carry once all
// of them are applied.  Unchanged blocks are not transmitted.
//
// The blocks live inside the Delta — at most NumHighBlocks of them.
// BeginProgram writes the Delta into the open transaction's staging
// record and hands it out by pointer, so opening a transaction neither
// allocates nor copies it; a programmer that needs the blocks after the
// transaction ends copies the Delta.
type Delta struct {
	Version uint64

	n      int
	blocks [NumHighBlocks]BlockDelta
}

// Blocks returns the changed blocks in ascending index order.  The
// slice aliases the Delta's own storage.  A nil Delta — BeginProgram's
// answer when the tables agree — has none.
func (d *Delta) Blocks() []BlockDelta {
	if d == nil {
		return nil
	}
	return d.blocks[:d.n]
}

// Append adds one changed block and reports whether it fit: a Delta
// holds at most NumHighBlocks.
func (d *Delta) Append(b BlockDelta) bool {
	if d.n == len(d.blocks) {
		return false
	}
	d.blocks[d.n] = b
	d.n++
	return true
}

// Errors of the programming protocol.
var (
	// ErrProgramInFlight rejects a second BeginProgram while a
	// transaction is still being delivered.
	ErrProgramInFlight = errors.New("core: port is already being reprogrammed")
	// ErrTornUpdate rejects a block that cannot belong to the expected
	// transaction: wrong version, wrong block count, a duplicate, or no
	// transaction open at all.  The port discards all staged state.
	ErrTornUpdate = errors.New("core: torn table update rejected")
)

// staging is the port-side state of one open programming transaction
// besides its block masks: the version it targets, the shadow high
// table at BeginProgram (its target), the Delta BeginProgram handed
// out, and the blocks staged so far.  A port holds one only while its
// transaction is open; it comes from the port's stagingPool and goes
// back when the transaction commits, aborts or is cancelled.
type staging struct {
	ver    uint64
	target [TableSize]arbtable.Entry
	delta  Delta
	ent    [NumHighBlocks][BlockEntries]arbtable.Entry
	next   *staging // free-list link, nil while the record is in use
}

// stagingPool is a free list of staging records shared by the port
// tables of one slab (NewPortTables), or owned by a port table made
// alone.  It grows to the number of transactions ever open at once
// and never shrinks, so a warm pool allocates nothing.  It is not safe
// for concurrent use: the tables sharing it are programmed from one
// goroutine at a time (in a sharded run, the control lane).
type stagingPool struct {
	free *staging
	// poison, set by tests, overwrites a record as it is returned, so
	// that a port still reading a returned record sees garbage at once.
	poison bool
}

// get takes a record off the free list, or allocates one.  Its contents
// are whatever the last transaction left; BeginProgram sets what it
// reads.
func (sp *stagingPool) get() *staging {
	r := sp.free
	if r == nil {
		return new(staging)
	}
	sp.free, r.next = r.next, nil
	return r
}

// put returns a record to the free list.
func (sp *stagingPool) put(r *staging) {
	if sp.poison {
		bad := arbtable.Entry{VL: 0xff, Weight: 0xff}
		r.ver = ^uint64(0)
		for i := range r.target {
			r.target[i] = bad
		}
		r.delta.Version, r.delta.n = ^uint64(0), len(r.delta.blocks)
		for b := range r.delta.blocks {
			r.delta.blocks[b].Index = 0xff
			for i := range r.delta.blocks[b].Entries {
				r.delta.blocks[b].Entries[i] = bad
			}
		}
		for b := range r.ent {
			for i := range r.ent[b] {
				r.ent[b][i] = bad
			}
		}
	}
	r.next, sp.free = sp.free, r
}

// Dirty reports whether the shadow table has changes the active table
// has not been programmed with yet.  It compares the whole tables, so
// it does not rely on the changed-block mask.
func (p *PortTable) Dirty() bool {
	shadow := &p.alloc.Table().High
	return *shadow != p.active.High
}

// Programming reports whether a table program is in flight: a delta
// has been emitted but its blocks have not all arrived.  Admission
// treats such a port as busy.
func (p *PortTable) Programming() bool { return p.delta != 0 }

// changedBlocks returns the blocks in which the shadow high table
// differs from the active one, bit b for block b, and takes the
// allocator's changed-block mask.  The blocks one write changed differ
// for certain, and outside the mask the tables agree (see
// CheckInvariants), so only the blocks more than one write changed are
// compared.  The caller makes the active table the shadow's — at once,
// or through the transaction it opens — so nothing is left to track.
func (p *PortTable) changedBlocks() uint8 {
	w := p.alloc.written
	p.alloc.written = 0
	mask := w.differ()
	shadow := &p.alloc.Table().High
	for m := w.unsure(); m != 0; m &= m - 1 {
		b := bits.TrailingZeros8(m)
		if *highBlock(shadow, b) != *highBlock(&p.active.High, b) {
			mask |= 1 << b
		}
	}
	return mask
}

// Apply programs the shadow high table into the active one at once, as
// a control plane with nothing between it and the port does: one swap,
// and the counters of a BeginProgram whose changed blocks all arrived.
// It does nothing when the tables agree, or while a transaction is in
// flight — that transaction's programmer chains the next one itself.
func (p *PortTable) Apply() {
	if p.Programming() {
		return
	}
	changed := p.changedBlocks()
	if changed == 0 {
		return
	}
	p.stats.Programs++
	p.stats.Blocks += int64(bits.OnesCount8(changed))
	p.swap(&p.alloc.Table().High)
}

// OnSwap registers fn to be called with code after every swap of the
// active table, by Apply or by the DeliverBlock that completes a
// transaction.  A swap can give a lane entries it lacked, so a port
// whose arbiter found nothing to send under the old table must be
// scheduled again; the data plane hooks that here.  One fn may serve
// every port, told apart by code, so registering allocates nothing.
func (p *PortTable) OnSwap(fn func(code int32), code int32) {
	p.onSwap, p.code = fn, code
}

// swap installs high as the active table's next version and tells the
// OnSwap listener.
func (p *PortTable) swap(high *[TableSize]arbtable.Entry) {
	p.active.Swap(*high)
	p.stats.Swaps++
	if p.onSwap != nil {
		p.onSwap(p.code)
	}
}

// BeginProgram opens a programming transaction: it takes the blocks in
// which the shadow high table differs from the active one from the
// allocator's changed-block mask, and returns them as
// a Delta carrying the active table's next version.  A nil Delta means
// the tables already agree and no transaction was opened.  While a
// transaction is open further BeginProgram calls fail with
// ErrProgramInFlight; the control plane must deliver the delta's blocks
// (DeliverBlock) before programming this port again.
//
// The Delta is the transaction's own, in its staging record: it stays
// valid only while the transaction is open.  The DeliverBlock that
// completes or tears it, and CancelProgram, return the record to the
// pool, after which the next BeginProgram may reuse it.
func (p *PortTable) BeginProgram() (*Delta, error) {
	if p.Programming() {
		return nil, ErrProgramInFlight
	}
	changed := p.changedBlocks()
	if changed == 0 {
		return nil, nil
	}
	shadow := &p.alloc.Table().High
	txn := p.pool.get()
	d := &txn.delta
	d.n = 0
	for m := changed; m != 0; m &= m - 1 {
		b := bits.TrailingZeros8(m)
		blk := &d.blocks[d.n]
		blk.Index, blk.Entries = b, *highBlock(shadow, b)
		d.n++
	}
	d.Version = p.active.Version() + 1
	p.delta = changed
	p.staged = 0
	p.mismatch = false
	p.txn = txn
	txn.ver = d.Version
	txn.target = *shadow
	p.stats.Programs++
	return d, nil
}

// DeliverBlock hands the port one block of a programmed delta, as if
// the corresponding SMP just arrived.  Blocks may arrive in any order;
// the active table is swapped — atomically, version advanced — exactly
// when all blocks of the transaction are present.
//
// The protocol is idempotent under retransmission: a duplicate of a
// block already staged with identical content, a block of a version
// older than the open transaction (a late retransmission of a
// finished or abandoned one), or — with no transaction open — a block
// matching the active table's version and content, are all silently
// ignored.  A block that contradicts the open transaction (future
// version, wrong total, duplicate index with different content)
// aborts the whole staged set: the port drops the partial state,
// counts a torn-update abort, and returns ErrTornUpdate.  The control
// plane then re-issues BeginProgram.  applied reports whether this
// delivery completed the transaction.
//
// A set completes when as many blocks as the delta has are staged.  It
// is swapped in only if they are exactly the delta's blocks and each
// equals the same block of the target; otherwise the control plane
// interleaved incompatible updates, and the set aborts.  That is the
// verdict of overlaying the staged blocks on the active table and
// comparing the result with the target, because outside the delta the
// active table equals the target by construction of the diff.
//
// The entries are read, and copied into the staging record, before the
// call returns; the caller keeps them.
func (p *PortTable) DeliverBlock(version uint64, index, total int, entries *[BlockEntries]arbtable.Entry) (applied bool, err error) {
	p.stats.Blocks++
	abort := func(form string, args ...any) (bool, error) {
		p.abortProgram()
		return false, fmt.Errorf("%w: %s", ErrTornUpdate, fmt.Sprintf(form, args...))
	}
	if index < 0 || index >= NumHighBlocks {
		return abort("block index %d out of range", index)
	}
	if !p.Programming() {
		if version < p.active.Version() {
			return false, nil // stale straggler of a long-retired version
		}
		if version == p.active.Version() && *highBlock(&p.active.High, index) == *entries {
			// A retransmitted or duplicated SMP of the transaction that
			// just committed: the content is already live.  Idempotent.
			return false, nil
		}
		return abort("no transaction open for version %d block %d", version, index)
	}
	txn := p.txn
	if version < txn.ver {
		return false, nil // late retransmission of an earlier transaction
	}
	if version > txn.ver {
		return abort("version %d, expected %d", version, txn.ver)
	}
	if total != bits.OnesCount8(p.delta) {
		return abort("claims %d blocks, transaction has %d", total, bits.OnesCount8(p.delta))
	}
	bit := uint8(1) << index
	if p.staged&bit != 0 {
		if txn.ent[index] == *entries {
			return false, nil // duplicate delivery, identical content
		}
		return abort("duplicate block %d with different content", index)
	}
	p.staged |= bit
	txn.ent[index] = *entries
	if *entries != *highBlock(&txn.target, index) {
		p.mismatch = true
	}
	if bits.OnesCount8(p.staged) < total {
		return false, nil
	}
	if p.mismatch || p.staged != p.delta {
		return abort("assembled table does not match transaction target")
	}
	p.delta, p.txn = 0, nil
	p.swap(&txn.target)
	p.pool.put(txn)
	return true, nil
}

// CheckInvariants verifies the port: the changed-block mask, both ways —
// outside the blocks the allocator changed since the port was last
// programmed the shadow equals the table it was programmed into (the
// active table, or the open transaction's target), and a block one
// write changed differs from it — its allocator
// (Allocator.checkInvariants), and the open transaction's state that
// DeliverBlock's completion rule relies on — outside the delta the
// target equals the active table, fewer blocks are staged than the
// delta has (the delivery that reaches the count swaps or aborts), the
// target version is the active table's next one, and mismatch is set
// exactly when a staged block differs from the same block of the
// target.  A staged block may lie outside the delta: it is refused only
// when the set completes.  The port holds a staging record exactly
// while the transaction is open, and reads it only then.  Like the
// allocator's check it does not allocate.
func (p *PortTable) CheckInvariants() error {
	if p.Programming() != (p.txn != nil) {
		return fmt.Errorf("port holds staging %v with delta %04b", p.txn != nil, p.delta)
	}
	shadow, programmed, what := &p.alloc.Table().High, &p.active.High, "active table"
	if p.Programming() {
		programmed, what = &p.txn.target, "transaction target"
	}
	w := p.alloc.written
	for b := 0; b < NumHighBlocks; b++ {
		differs := *highBlock(shadow, b) != *highBlock(programmed, b)
		if w.touched()>>b&1 == 0 && differs {
			return fmt.Errorf("block %d differs between shadow and %s outside the changed-block mask %04b", b, what, w.touched())
		}
		if w.differ()>>b&1 != 0 && !differs {
			return fmt.Errorf("block %d is marked changed once but equals the %s", b, what)
		}
	}
	if err := p.alloc.checkInvariants(); err != nil {
		return err
	}
	if !p.Programming() {
		return nil
	}
	if bits.OnesCount8(p.staged) >= bits.OnesCount8(p.delta) {
		return fmt.Errorf("staged blocks %04b complete delta %04b but the transaction is open", p.staged, p.delta)
	}
	txn := p.txn
	if txn.next != nil {
		return fmt.Errorf("open transaction's staging is still linked into the free list")
	}
	if txn.ver != p.active.Version()+1 {
		return fmt.Errorf("transaction targets version %d, active table is at %d", txn.ver, p.active.Version())
	}
	mismatch := false
	for b := 0; b < NumHighBlocks; b++ {
		if p.delta>>b&1 == 0 && *highBlock(&txn.target, b) != *highBlock(&p.active.High, b) {
			return fmt.Errorf("block %d outside the delta differs between target and active table", b)
		}
		if p.staged>>b&1 != 0 && txn.ent[b] != *highBlock(&txn.target, b) {
			mismatch = true
		}
	}
	if mismatch != p.mismatch {
		return fmt.Errorf("mismatch flag %v, staged blocks say %v", p.mismatch, mismatch)
	}
	return nil
}

// abortProgram discards all staged transaction state, if any is open,
// and counts a torn update.  The shadow table is untouched (it is the
// source of truth); the control plane recovers by re-issuing
// BeginProgram.
func (p *PortTable) abortProgram() {
	p.dropProgram()
	p.stats.TornAborts++
}

// dropProgram closes the open transaction, if any, without a swap and
// returns its staging to the pool.  The active table keeps its old
// version, so the programmed table is the active one again.  Outside
// the delta it equals the target; in each block of the delta it differs
// from the target, as one more write would, so the delta goes into the
// changed-block mask as one: a block no write changed since BeginProgram
// differs from the active table, and one that a write changed may have
// reverted to it and is compared.
func (p *PortTable) dropProgram() {
	p.alloc.written.touch(p.delta)
	p.delta = 0
	if p.txn != nil {
		p.pool.put(p.txn)
		p.txn = nil
	}
}

// highBlock returns block b of a high table in place.
func highBlock(high *[TableSize]arbtable.Entry, b int) *[BlockEntries]arbtable.Entry {
	return (*[BlockEntries]arbtable.Entry)(high[b*BlockEntries : (b+1)*BlockEntries])
}

// CancelProgram rolls back the open programming transaction iff it is
// the given version: all staged blocks are discarded and the active
// table is left byte-identical to its pre-transaction state.  It is
// the coordinator's deadline-abort path — the port-side transaction
// terminates without a swap.  It reports whether a transaction was
// cancelled; a port whose transaction already committed (or was torn
// down) is left untouched, so a coordinator that lost the completing
// ack cannot destroy a successor transaction.
func (p *PortTable) CancelProgram(version uint64) bool {
	if !p.Programming() || p.txn.ver != version {
		return false
	}
	p.dropProgram()
	return true
}
