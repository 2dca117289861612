package subnet

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/mad"
	"repro/internal/sim"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// checkFreeList audits the recycled delivery and transaction records
// of a programmer running with poison set, and returns how many of
// each there are: none may still be marked in use, and none may have
// been written to since it was recycled.  A poisoned SMP names block
// 254 and a poisoned transaction block is block 255, so an event or a
// handler that reads a recycled record panics in land or is dropped
// and never acknowledged; either fails the tests below.
func checkFreeList(t *testing.T, p *InbandProgrammer) (deliveries, txns int) {
	t.Helper()
	poisoned := func(what string, n int, wire *[mad.Size]byte) {
		for i, b := range wire {
			if b != 0xff {
				t.Fatalf("%s %d of the free list was written to after it was recycled (byte %d = %#x)", what, n, i, b)
			}
		}
	}
	for _, d := range p.deliveries {
		if d.used || d.ps != nil {
			t.Fatalf("delivery record %d of the free list is still in use", deliveries)
		}
		poisoned("delivery record", deliveries, &d.wire)
		deliveries++
	}
	for _, tx := range p.txns {
		if tx.used {
			t.Fatalf("transaction record %d of the free list is still open", txns)
		}
		for k, b := range tx.blocks {
			for i, e := range b.Entries {
				if b.Index != 0xff || e != (arbtable.Entry{VL: 0xff, Weight: 0xff}) {
					t.Fatalf("transaction record %d of the free list was written to after it was recycled (block %d: index %d, entry %d = %+v)", txns, k, b.Index, i, e)
				}
			}
		}
		txns++
	}
	return deliveries, txns
}

// TestProgramRejectsBadDeltaBeforePosting: a delta the codec refuses is
// refused whole, with or without an injector.  The bad block comes
// second, so a programmer that checked and posted block by block would
// have one SMP in flight, one MAD accounted and the port waiting for a
// set that never completes.  A block number past the table and an
// entry whose VL does not fit the wire's 4 bits are both refused: the
// second is what a lone SMP's encode refuses, so a flight, which is
// never encoded, must refuse it too.
func TestProgramRejectsBadDeltaBeforePosting(t *testing.T) {
	var vl16 core.BlockDelta
	vl16.Index = 1
	vl16.Entries[3] = arbtable.Entry{VL: 16, Weight: 1}
	for _, bad := range []struct {
		name  string
		block core.BlockDelta
	}{
		{"block past the table", core.BlockDelta{Index: core.NumHighBlocks}},
		{"VL 16", vl16},
	} {
		for _, injector := range []bool{false, true} {
			eng, prog, pt := newProgrammerFixture(t)
			prog.poison = true
			if injector {
				prog.Faults = faults.New(faults.Config{Seed: 1})
			}
			var d core.Delta
			d.Version = 1
			d.Append(core.BlockDelta{Index: 0})
			d.Append(bad.block)
			if err := prog.Program(admission.HostPortID(5), pt, &d); err == nil {
				t.Fatalf("injector=%v: delta with a %s accepted", injector, bad.name)
			}
			if n := eng.Pending(); n != 0 {
				t.Errorf("injector=%v, %s: %d events posted for a refused delta", injector, bad.name, n)
			}
			if prog.Costs != (Costs{}) {
				t.Errorf("injector=%v, %s: refused delta accounted %+v", injector, bad.name, prog.Costs)
			}
			if n := prog.OpenTransactions(); n != 0 {
				t.Errorf("injector=%v, %s: refused delta left %d transactions open", injector, bad.name, n)
			}
			// Whatever records the attempt drew are back, and the
			// programmer still works.
			checkFreeList(t, prog)
			programOnce(t, prog, pt)
			eng.RunWhile(func() bool { return true })
			if pt.Programming() || pt.Dirty() {
				t.Errorf("injector=%v, %s: programmer unusable after a refused delta", injector, bad.name)
			}
		}
	}
}

// TestTransactionRecordSize gates the transaction record: it keeps a
// delta's blocks, 40 bytes each, and no wire bytes, which only a lone
// SMP's delivery record holds (1 184 bytes when the record kept every
// block's 256-byte wire).
func TestTransactionRecordSize(t *testing.T) {
	const maxBytes = 288
	if n := unsafe.Sizeof(txnState{}); n > maxBytes {
		t.Errorf("txnState is %d bytes, want at most %d", n, maxBytes)
	}
}

// countingProgrammer counts the transactions admission opens itself,
// so the rest — opened by the programmer from inside a delivery — can
// be told apart.
type countingProgrammer struct {
	*InbandProgrammer
	calls int
}

func (c *countingProgrammer) Program(id admission.PortID, pt *core.PortTable, d *core.Delta) error {
	c.calls++
	return c.InbandProgrammer.Program(id, pt, d)
}

// TestDeliveryPoolLifetime drives connection churn over the k=8
// control state with every delta programmed in-band, fast enough that
// releases and admissions land on ports mid-reprogram and the
// programmer chains their transactions from inside the response that
// completes the previous one — the moment a record recycled too early
// would be handed straight back out.  Records are poisoned as they are
// recycled; the free lists panic on a record handed out or returned
// twice.  The run must end with every
// lifecycle resolved, the allocators sound, every port idle with
// active == shadow, and pools a small fraction of the transactions and
// lone SMPs they carried.  On a perfect network every transaction flies
// whole, so no SMP flies alone.
func TestDeliveryPoolLifetime(t *testing.T) {
	const lifecycles, meanGapBT, meanHoldBT = 2000, 512, 16_384
	for _, tc := range []struct {
		name   string
		faults *faults.Config
	}{
		{"perfect", nil},
		// Duplicates fly in records of their own, corruption hits the
		// flight's copy and never the retained wire, stragglers arrive
		// after their transaction settled.
		{"reliable", &faults.Config{Seed: 5, Duplicate: 0.2, Corrupt: 0.02, Reorder: 0.2, MaxReorderBT: 700}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs, m := controlK8(t)
			eng := &sim.Engine{}
			prog := &countingProgrammer{InbandProgrammer: NewInbandProgrammer(eng, m)}
			prog.poison = true
			if tc.faults != nil {
				prog.Faults = faults.New(*tc.faults)
				prog.OnGiveUp = func(id admission.PortID, _ *core.PortTable) {
					t.Errorf("gave up on %v: no SMP is ever lost in this run", id)
				}
			}
			cs.Adm.SetProgrammer(prog)
			admitted := 0
			resolved := churnLifecycles(t, eng, cs.Adm, lifecycles, meanGapBT, meanHoldBT, func(_ int, err error) {
				if err == nil {
					admitted++
				}
			})
			deliveries, txns := checkFreeList(t, prog.InbandProgrammer)

			if resolved != lifecycles || cs.Adm.Live() != 0 {
				t.Errorf("%d of %d lifecycles resolved, %d connections still live", resolved, lifecycles, cs.Adm.Live())
			}
			if err := cs.Adm.CheckInvariants(); err != nil {
				t.Error(err)
			}
			programs, open := 0, 0
			cs.Ports.Each(func(_ admission.PortID, pt *core.PortTable) {
				programs += int(pt.Stats().Programs)
				if pt.Programming() || pt.Dirty() {
					open++
				} else if pt.Active().High != pt.Allocator().Table().High {
					t.Error("idle port has active != shadow")
				}
			})
			if open != 0 || prog.OpenTransactions() != 0 {
				t.Errorf("%d ports and %d transactions still open at the end", open, prog.OpenTransactions())
			}
			chained := programs - prog.calls
			t.Logf("%d admitted, %d MADs in %d transactions (%d chained from a response), pools of %d transaction and %d delivery records",
				admitted, prog.Costs.MADs, programs, chained, txns, deliveries)
			if chained < lifecycles/20 {
				t.Errorf("only %d transactions were chained from inside a response; the run does not exercise reuse under chaining", chained)
			}
			if txns == 0 || txns*50 > programs {
				t.Errorf("pool holds %d transaction records after %d transactions: want every record back, and reused at least fifty-fold", txns, programs)
			}
			if tc.faults == nil && deliveries != 0 {
				t.Errorf("%d SMPs flew alone on a perfect network", deliveries)
			}
			if tc.faults != nil && (deliveries == 0 || deliveries*50 > prog.Costs.MADs) {
				t.Errorf("pool holds %d delivery records after %d SMPs: want every record back, and reused at least fifty-fold", deliveries, prog.Costs.MADs)
			}
		})
	}
}

// controlK8 builds the k=8 fat-tree's control state and a subnet
// manager over it.
func controlK8(t *testing.T) (*fabric.ControlState, *Manager) {
	topo, err := topology.GenerateFatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := fabric.BuildControl(fabric.DefaultConfig(topo.NumSwitches, 512, 7), topo)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(topo)
	m.Routes = cs.Routes
	return cs, m
}

// churnLifecycles drives n connection lifecycles over adm on eng and
// returns how many resolved: arrivals with exponential gaps of mean
// meanGapBT, each through AdmitWithRetry, and every admitted connection
// released after an exponential hold of mean meanHoldBT.  outcome sees
// each arrival's admission result as it settles.  It runs eng until
// nothing is pending.
func churnLifecycles(t *testing.T, eng *sim.Engine, adm *admission.Controller, n int, meanGapBT, meanHoldBT float64, outcome func(arrival int, err error)) (resolved int) {
	src := traffic.NewSource(sl.DefaultLevels, len(adm.Ports().Host), 8)
	rng := rand.New(rand.NewSource(7))
	arrivals := 0
	var arrive func()
	arrive = func() {
		if arrivals == n {
			return
		}
		i := arrivals
		arrivals++
		eng.After(1+int64(rng.ExpFloat64()*meanGapBT), arrive)
		hold := 1 + int64(rng.ExpFloat64()*meanHoldBT)
		adm.AdmitWithRetry(eng, src.Next(), admission.DefaultRetryPolicy(), func(conn *admission.Conn, err error) {
			outcome(i, err)
			if err != nil {
				resolved++
				return
			}
			eng.After(hold, func() {
				if err := adm.Release(conn); err != nil {
					t.Error(err)
				}
				resolved++
			})
		})
	}
	eng.After(1, arrive)
	eng.RunWhile(func() bool { return true })
	return resolved
}
