package subnet

import (
	"math/rand"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// checkFreeList audits the recycled delivery records of a programmer
// running with poison set, and returns how many there are: none may
// still be marked in use, and none may have been written to since it
// was recycled.  A poisoned SMP names block 254, so an event or a
// handler that reads a recycled record panics in arrive
// (fire-and-forget) or is dropped and never acknowledged (reliable);
// either fails the tests below.
func checkFreeList(t *testing.T, p *InbandProgrammer) int {
	t.Helper()
	n := 0
	for d := p.free; d != nil; d = d.next {
		if d.flying || d.pt != nil || d.tx != nil {
			t.Fatalf("record %d of the free list is still in use", n)
		}
		for i, b := range d.wire {
			if b != 0xff {
				t.Fatalf("record %d of the free list was written to after it was recycled (byte %d = %#x)", n, i, b)
			}
		}
		n++
	}
	return n
}

// TestProgramRejectsBadDeltaBeforePosting: a delta the codec refuses is
// refused whole.  The bad block comes second, so a programmer that
// encoded and posted block by block would have one SMP in flight, one
// MAD accounted and the port waiting for a set that never completes.
func TestProgramRejectsBadDeltaBeforePosting(t *testing.T) {
	for _, reliable := range []bool{false, true} {
		eng, prog, pt := newProgrammerFixture(t)
		prog.poison = true
		if reliable {
			prog.Faults = faults.New(faults.Config{Seed: 1})
		}
		var bad core.Delta
		bad.Version = 1
		bad.Append(core.BlockDelta{Index: 0})
		bad.Append(core.BlockDelta{Index: core.NumHighBlocks})
		if err := prog.Program(admission.HostPortID(5), pt, bad); err == nil {
			t.Fatalf("reliable=%v: delta naming block %d accepted", reliable, core.NumHighBlocks)
		}
		if n := eng.Pending(); n != 0 {
			t.Errorf("reliable=%v: %d events posted for a refused delta", reliable, n)
		}
		if prog.Costs != (Costs{}) {
			t.Errorf("reliable=%v: refused delta accounted %+v", reliable, prog.Costs)
		}
		if n := prog.OpenTransactions(); n != 0 {
			t.Errorf("reliable=%v: refused delta left %d transactions open", reliable, n)
		}
		// Whatever records the attempt drew are back, and the programmer
		// still works.
		checkFreeList(t, prog)
		programOnce(t, prog, pt)
		eng.RunWhile(func() bool { return true })
		if pt.Programming() || pt.Dirty() {
			t.Errorf("reliable=%v: programmer unusable after a refused delta", reliable)
		}
	}
}

// countingProgrammer counts the transactions admission opens itself,
// so the rest — opened by the programmer from inside a delivery — can
// be told apart.
type countingProgrammer struct {
	*InbandProgrammer
	calls int
}

func (c *countingProgrammer) Program(id admission.PortID, pt *core.PortTable, d core.Delta) error {
	c.calls++
	return c.InbandProgrammer.Program(id, pt, d)
}

// TestDeliveryPoolLifetime drives connection churn over the k=8
// control state with every delta programmed in-band, fast enough that
// releases and admissions land on ports mid-reprogram and the
// programmer chains their transactions from inside the delivery that
// completes the previous one — the moment a record recycled too early
// would be handed straight back out.  Records are poisoned as they are
// recycled; newDelivery and recycle panic on a record handed out or
// returned twice.  The run must end with every lifecycle resolved, the
// allocators sound, every port idle with active == shadow, and a pool a
// small fraction of the SMPs it carried.
func TestDeliveryPoolLifetime(t *testing.T) {
	const lifecycles, meanGapBT, meanHoldBT = 2000, 512, 16_384
	for _, tc := range []struct {
		name   string
		faults *faults.Config
	}{
		{"fire-and-forget", nil},
		// Duplicates fly in records of their own, corruption hits the
		// flight's copy and never the retained wire, stragglers arrive
		// after their transaction settled.
		{"reliable", &faults.Config{Seed: 5, Duplicate: 0.2, Corrupt: 0.02, Reorder: 0.2, MaxReorderBT: 700}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := topology.Spec{Class: topology.FatTree, K: 8}.Generate()
			if err != nil {
				t.Fatal(err)
			}
			cs, err := fabric.BuildControl(fabric.DefaultConfig(topo.NumSwitches, 512, 7), topo)
			if err != nil {
				t.Fatal(err)
			}
			eng := &sim.Engine{}
			m := NewManager(topo)
			m.Routes = cs.Routes
			prog := &countingProgrammer{InbandProgrammer: NewInbandProgrammer(eng, m)}
			prog.poison = true
			if tc.faults != nil {
				prog.Faults = faults.New(*tc.faults)
				prog.OnGiveUp = func(id admission.PortID, _ *core.PortTable) {
					t.Errorf("gave up on %v: no SMP is ever lost in this run", id)
				}
			}
			cs.Adm.SetProgrammer(prog)

			src := traffic.NewSource(sl.DefaultLevels, topo.NumHosts(), 8)
			rng := rand.New(rand.NewSource(7))
			arrivals, admitted, resolved := 0, 0, 0
			var arrive func()
			arrive = func() {
				if arrivals == lifecycles {
					return
				}
				arrivals++
				eng.After(1+int64(rng.ExpFloat64()*meanGapBT), arrive)
				hold := 1 + int64(rng.ExpFloat64()*meanHoldBT)
				cs.Adm.AdmitWithRetry(eng, src.Next(), admission.DefaultRetryPolicy(), func(conn *admission.Conn, err error) {
					if err != nil {
						resolved++
						return
					}
					admitted++
					eng.After(hold, func() {
						if err := cs.Adm.Release(conn); err != nil {
							t.Error(err)
						}
						resolved++
					})
				})
			}
			eng.After(1, arrive)

			eng.RunWhile(func() bool { return true })
			pool := checkFreeList(t, prog.InbandProgrammer)

			if resolved != lifecycles || cs.Adm.Live() != 0 {
				t.Errorf("%d of %d lifecycles resolved, %d connections still live", resolved, lifecycles, cs.Adm.Live())
			}
			if err := cs.Adm.CheckInvariants(); err != nil {
				t.Error(err)
			}
			programs, open := 0, 0
			eachPortTable(cs.Ports, func(pt *core.PortTable) {
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
			t.Logf("%d admitted, %d MADs in %d transactions (%d chained from a delivery), pool of %d records",
				admitted, prog.Costs.MADs, programs, chained, pool)
			if chained < lifecycles/20 {
				t.Errorf("only %d transactions were chained from inside a delivery; the run does not exercise reuse under chaining", chained)
			}
			if pool == 0 || pool*50 > prog.Costs.MADs {
				t.Errorf("pool holds %d records after %d SMPs: want every record back, and reused at least fifty-fold", pool, prog.Costs.MADs)
			}
		})
	}
}

func eachPortTable(p *admission.Ports, fn func(*core.PortTable)) {
	for _, pt := range p.Host {
		fn(pt)
	}
	for _, row := range p.Switch {
		for _, pt := range row {
			fn(pt)
		}
	}
}
