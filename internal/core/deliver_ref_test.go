package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arbtable"
)

// refPort is the port side of the programming protocol as it stood when
// a completed block set was reassembled into a 64-entry table and
// compared with the transaction's target: its staging fields and its
// BeginProgram, DeliverBlock and CancelProgram bodies.  It keeps its own
// active table and diffs against the shadow of the PortTable it runs
// beside, so one script can drive both.
type refPort struct {
	shadow *arbtable.Table
	active *arbtable.Table

	programming bool
	targetVer   uint64
	target      [TableSize]arbtable.Entry
	expectTotal int
	staged      [NumHighBlocks]bool
	stagedEnt   [NumHighBlocks][BlockEntries]arbtable.Entry

	stats ReconfigStats
}

func newRefPort(pt *PortTable) *refPort {
	active := arbtable.New(pt.Active().Limit)
	active.High = pt.Active().High
	return &refPort{shadow: pt.Allocator().Table(), active: active}
}

func (p *refPort) beginProgram() (Delta, error) {
	if p.programming {
		return Delta{}, ErrProgramInFlight
	}
	var d Delta
	for b := 0; b < NumHighBlocks; b++ {
		if blk := highBlock(&p.shadow.High, b); *blk != *highBlock(&p.active.High, b) {
			d.Append(BlockDelta{Index: b, Entries: *blk})
		}
	}
	if d.n == 0 {
		return Delta{}, nil
	}
	d.Version = p.active.Version() + 1
	p.programming = true
	p.targetVer = d.Version
	p.target = p.shadow.High
	p.expectTotal = d.n
	p.staged = [NumHighBlocks]bool{}
	p.stats.Programs++
	return d, nil
}

func (p *refPort) deliverBlock(version uint64, index, total int, entries [BlockEntries]arbtable.Entry) (applied bool, err error) {
	p.stats.Blocks++
	abort := func(form string, args ...any) (bool, error) {
		p.programming = false
		p.staged = [NumHighBlocks]bool{}
		p.stats.TornAborts++
		return false, fmt.Errorf("%w: %s", ErrTornUpdate, fmt.Sprintf(form, args...))
	}
	if index < 0 || index >= NumHighBlocks {
		return abort("block index %d out of range", index)
	}
	if !p.programming {
		if version < p.active.Version() {
			return false, nil
		}
		if version == p.active.Version() && *highBlock(&p.active.High, index) == entries {
			return false, nil
		}
		return abort("no transaction open for version %d block %d", version, index)
	}
	if version < p.targetVer {
		return false, nil
	}
	if version > p.targetVer {
		return abort("version %d, expected %d", version, p.targetVer)
	}
	if total != p.expectTotal {
		return abort("claims %d blocks, transaction has %d", total, p.expectTotal)
	}
	if p.staged[index] {
		if p.stagedEnt[index] == entries {
			return false, nil
		}
		return abort("duplicate block %d with different content", index)
	}
	p.staged[index] = true
	p.stagedEnt[index] = entries
	seen := 0
	for _, s := range p.staged {
		if s {
			seen++
		}
	}
	if seen < p.expectTotal {
		return false, nil
	}
	next := p.active.High
	for b := 0; b < NumHighBlocks; b++ {
		if !p.staged[b] {
			continue
		}
		copy(next[b*BlockEntries:(b+1)*BlockEntries], p.stagedEnt[b][:])
	}
	if next != p.target {
		return abort("assembled table does not match transaction target")
	}
	p.active.Swap(next)
	p.stats.Swaps++
	p.programming = false
	p.staged = [NumHighBlocks]bool{}
	return true, nil
}

func (p *refPort) cancelProgram(version uint64) bool {
	if !p.programming || p.targetVer != version {
		return false
	}
	p.programming = false
	p.staged = [NumHighBlocks]bool{}
	return true
}

// deliverDiff drives a PortTable and a refPort over one shadow table
// through a script read from a byte stream, and fails at the first call
// whose outcome or resulting port state differs.
type deliverDiff struct {
	t    testing.TB
	pt   *PortTable
	ref  *refPort
	data []byte

	held   []Reservation
	deltas []Delta // every delta opened, latest last

	outcomes map[string]int
}

func newDeliverDiff(t testing.TB, data []byte) *deliverDiff {
	pt := NewPortTable(arbtable.New(arbtable.UnlimitedHigh))
	return &deliverDiff{t: t, pt: pt, ref: newRefPort(pt), data: data, outcomes: make(map[string]int)}
}

// next consumes one script byte; an exhausted script reads zeros.
func (d *deliverDiff) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

// latest returns the most recently opened delta, or an empty one of the
// active table's next version.
func (d *deliverDiff) latest() Delta {
	if n := len(d.deltas); n > 0 {
		return d.deltas[n-1]
	}
	return Delta{Version: d.pt.Active().Version() + 1}
}

// block picks a block of delta x by the script's choice; a delta with no
// blocks yields a shadow block.
func (d *deliverDiff) block(x Delta, k byte) (int, [BlockEntries]arbtable.Entry) {
	if bs := x.Blocks(); len(bs) > 0 {
		b := bs[int(k)%len(bs)]
		return b.Index, b.Entries
	}
	i := int(k) % NumHighBlocks
	return i, *highBlock(&d.pt.Allocator().Table().High, i)
}

// compare fails unless both ports are in the same observable state.
func (d *deliverDiff) compare(op string) {
	d.t.Helper()
	got, ref := d.pt, d.ref
	switch {
	case got.Active().High != ref.active.High:
		d.t.Fatalf("after %s: active tables differ\ngot: %v\nref: %v", op, got.Active().High, ref.active.High)
	case got.Active().Version() != ref.active.Version():
		d.t.Fatalf("after %s: active version %d, reference %d", op, got.Active().Version(), ref.active.Version())
	case got.Stats() != ref.stats:
		d.t.Fatalf("after %s: stats %+v, reference %+v", op, got.Stats(), ref.stats)
	case got.Programming() != ref.programming:
		d.t.Fatalf("after %s: Programming() = %v, reference %v", op, got.Programming(), ref.programming)
	}
	if err := got.CheckInvariants(); err != nil {
		d.t.Fatalf("after %s: %v", op, err)
	}
}

// deliver hands one block to both ports and compares the outcomes.
func (d *deliverDiff) deliver(version uint64, index, total int, entries [BlockEntries]arbtable.Entry) {
	d.t.Helper()
	op := fmt.Sprintf("DeliverBlock(v%d, block %d, &total %d)", version, index, total)
	applied, err := d.pt.DeliverBlock(version, index, total, &entries)
	wantApplied, wantErr := d.ref.deliverBlock(version, index, total, entries)
	if applied != wantApplied || (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		d.t.Fatalf("%s = (%v, %v), reference (%v, %v)", op, applied, err, wantApplied, wantErr)
	}
	switch {
	case applied:
		d.outcomes["applied"]++
	case err == nil:
		d.outcomes["ignored"]++
	default:
		// The reason, without its numbers.
		reason := strings.Map(func(r rune) rune {
			if r == '-' || r >= '0' && r <= '9' {
				return ' '
			}
			return r
		}, strings.TrimPrefix(err.Error(), ErrTornUpdate.Error()+": "))
		d.outcomes[strings.Join(strings.Fields(reason), " ")]++
	}
	d.compare(op)
}

// run executes the script: four bytes per operation, the first choosing
// it and the other three its operands.
func (d *deliverDiff) run() {
	d.t.Helper()
	justReserved := false
	for len(d.data) > 0 {
		op, a, b, c := d.next(), d.next(), d.next(), d.next()
		x := d.latest()
		reserved := justReserved
		justReserved = false
		switch op % 16 {
		case 0, 1:
			// A join or a fresh sequence on one of four lanes, one to
			// four blocks wide.
			r, err := d.pt.Reserve(a%4, Distances[int(b)%len(Distances)], 1+int(c))
			if err == nil {
				d.held = append(d.held, r)
				justReserved = true
			}
		case 2:
			if len(d.held) > 0 {
				k := int(a) % len(d.held)
				if err := d.pt.Release(d.held[k]); err != nil {
					d.t.Fatal(err)
				}
				d.held = append(d.held[:k], d.held[k+1:]...)
			}
		case 3:
			// Rollback undoes only the reservation just made, as an
			// aborting admission does; later it would leave a layout
			// defragmentation never produces.
			if n := len(d.held); reserved {
				if err := d.pt.Rollback(d.held[n-1]); err != nil {
					d.t.Fatal(err)
				}
				d.held = d.held[:n-1]
			}
		case 4, 5:
			got, err := beginCopy(d.pt)
			want, wantErr := d.ref.beginProgram()
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() ||
				got.Version != want.Version || fmt.Sprint(got.Blocks()) != fmt.Sprint(want.Blocks()) {
				d.t.Fatalf("BeginProgram = (%+v, %v), reference (%+v, %v)", got, err, want, wantErr)
			}
			if err == nil && len(got.Blocks()) > 0 {
				d.deltas = append(d.deltas, got)
				d.outcomes["opened"]++
			}
			d.compare("BeginProgram")
		case 6, 7, 8:
			// One block of the latest delta, in the script's order:
			// shuffled, and duplicated when picked twice.
			i, e := d.block(x, a)
			d.deliver(x.Version, i, len(x.Blocks()), e)
		case 9:
			// Every block of the latest delta, in order.
			for _, blk := range x.Blocks() {
				d.deliver(x.Version, blk.Index, len(x.Blocks()), blk.Entries)
			}
		case 10:
			// Content that differs from the target: a first arrival that
			// completes wrongly, or a duplicate with different content.
			i, e := d.block(x, a)
			e[b%BlockEntries].Weight ^= c | 1
			d.deliver(x.Version, i, len(x.Blocks()), e)
		case 11:
			// A block of an earlier delta: a stale straggler, a late copy
			// of the one just applied, or one of a cancelled attempt whose
			// version the retry reused.
			if len(d.deltas) > 0 {
				old := d.deltas[int(a)%len(d.deltas)]
				i, e := d.block(old, b)
				d.deliver(old.Version, i, len(old.Blocks()), e)
			}
		case 12:
			i, e := d.block(x, a)
			d.deliver(x.Version+1+uint64(b%3), i, len(x.Blocks()), e)
		case 13:
			// A total one to three off, either way.
			i, e := d.block(x, a)
			off := 1 + int(b%3)
			if c%2 == 1 {
				off = -off
			}
			d.deliver(x.Version, i, len(x.Blocks())+off, e)
		case 14:
			// An index outside the table, or one the delta does not name,
			// carrying the active, the shadow or altered content.
			var i int
			switch b % 4 {
			case 0:
				i = -1 - int(a%3)
			case 1:
				i = NumHighBlocks + int(a)
			default:
				// The first index from a on that the delta does not name,
				// or a when it names all four.
				var named uint8
				for _, blk := range x.Blocks() {
					named |= 1 << blk.Index
				}
				i = int(a) % NumHighBlocks
				for j := 0; j < NumHighBlocks && named>>i&1 == 1; j++ {
					i = (i + 1) % NumHighBlocks
				}
			}
			var e [BlockEntries]arbtable.Entry
			if i >= 0 && i < NumHighBlocks {
				switch c % 3 {
				case 0:
					e = *highBlock(&d.pt.Active().High, i)
				case 1:
					e = *highBlock(&d.pt.Allocator().Table().High, i)
				default:
					e = *highBlock(&d.pt.Active().High, i)
					e[c%BlockEntries].Weight ^= 1
				}
			}
			d.deliver(x.Version, i, len(x.Blocks()), e)
		case 15:
			// The coordinator's deadline abort, of the open version or
			// another.
			v := x.Version
			if a%3 == 0 {
				v += 1 + uint64(b%2)
			}
			if got, want := d.pt.CancelProgram(v), d.ref.cancelProgram(v); got != want {
				d.t.Fatalf("CancelProgram(%d) = %v, reference %v", v, got, want)
			} else if got {
				d.outcomes["cancelled"]++
			}
			d.compare("CancelProgram")
		}
	}
}

// TestDeliverBlockDifferential holds the port side of the programming
// protocol to the reference through random scripts: joins, releases and
// rollbacks of the reservation just made that change the shadow,
// BeginProgram whether or not a
// transaction is in flight, blocks delivered in order, shuffled and
// duplicated with the same and with different content, stale and future
// versions, wrong totals, out-of-range and off-delta indices, content
// that differs from the target, and CancelProgram mid-set.  After every
// call the outcome (applied, error text), the active table bytes and
// version, ReconfigStats and Programming() must match, and the port
// must pass PortTable.CheckInvariants.
func TestDeliverBlockDifferential(t *testing.T) {
	size := 8000
	if testing.Short() {
		size = 1000
	}
	outcomes := make(map[string]int)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, size)
		rng.Read(script)
		d := newDeliverDiff(t, script)
		d.run()
		for k, n := range d.outcomes {
			outcomes[k] += n
		}
	}
	t.Logf("outcomes: %v", outcomes)
	for _, want := range []string{
		"opened", "applied", "ignored", "cancelled",
		"block index out of range",
		"no transaction open for version block",
		"version , expected",
		"claims blocks, transaction has",
		"duplicate block with different content",
		"assembled table does not match transaction target",
	} {
		if outcomes[want] == 0 {
			t.Errorf("scripts never reached %q: %v", want, outcomes)
		}
	}
}

// FuzzDeliverBlock runs the same differential on fuzzer-chosen scripts
// (four bytes per operation, see deliverDiff.run).  Run with
// `go test -fuzz FuzzDeliverBlock ./internal/core` to explore; the seed
// corpus keeps it active as a regular test.
func FuzzDeliverBlock(f *testing.F) {
	// Reserve at distance 2, open, deliver everything; again with a
	// mutated first block; a cancel and a retry with a stale straggler.
	f.Add([]byte{0, 1, 0, 100, 4, 0, 0, 0, 9, 0, 0, 0, 11, 0, 0, 0})
	f.Add([]byte{0, 2, 0, 100, 4, 0, 0, 0, 10, 0, 3, 5, 9, 0, 0, 0, 0, 3, 5, 9, 4, 0, 0, 0, 14, 1, 2, 1})
	f.Add([]byte{0, 0, 0, 50, 4, 0, 0, 0, 6, 1, 0, 0, 15, 0, 0, 0, 0, 1, 3, 7, 4, 0, 0, 0, 11, 0, 1, 0, 9, 0, 0, 0, 13, 0, 1, 1, 12, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		newDeliverDiff(t, data).run()
	})
}
