package subnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mad"
	"repro/internal/sim"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// perBlockProgrammer is the fire-and-forget programmer as it was before
// a transaction's SMPs flew together: every SMP is its own event, at
// its own arrival time, that parses the SMP and stages its block.  It
// is kept as the reference TestInbandEventsPerTransaction holds the
// one-flight programmer to.
type perBlockProgrammer struct {
	eng   *sim.Engine
	m     *Manager
	costs Costs
}

// perBlockSMP is one SMP in flight under the reference.
type perBlockSMP struct {
	id   admission.PortID
	pt   *core.PortTable
	wire [mad.Size]byte
}

func (p *perBlockProgrammer) Program(id admission.PortID, pt *core.PortTable, d *core.Delta) error {
	blocks := d.Blocks()
	hops := p.m.hopsToPort(id)
	for k := range blocks {
		smp := &perBlockSMP{id: id, pt: pt}
		if err := encodeBlock(&smp.wire, id, d.Version, len(blocks), &blocks[k]); err != nil {
			return err
		}
		p.costs.addMAD(hops)
		delay := int64(k+1)*madWireBytes + int64(hops)*(madWireBytes+hopLatencyBT)
		p.eng.PostAfter(delay, p, sim.Event{P: smp})
	}
	return nil
}

func (p *perBlockProgrammer) HandleEvent(ev sim.Event) {
	smp := ev.P.(*perBlockSMP)
	var blk [core.BlockEntries]arbtable.Entry
	version, index, total, err := mad.DecodeHighBlock(smp.wire[:], &blk)
	if err != nil {
		panic(err)
	}
	applied, err := smp.pt.DeliverBlock(version, index, total, &blk)
	if (applied || err != nil) && !smp.pt.Programming() {
		if d, _ := smp.pt.BeginProgram(); d != nil {
			if err := p.Program(smp.id, smp.pt, d); err != nil {
				panic(err)
			}
		}
	}
}

// inbandRun is what a churn run over the k=8 control state shows of its
// programmer: every arrival's outcome and instant, every table swap's
// port and instant, the ports' summed counters and the events executed.
type inbandRun struct {
	outcomes []string
	swaps    []string
	reconfig core.ReconfigStats
	costs    Costs
	events   uint64
}

// runInbandChurn drives fire-and-forget connection churn over the k=8
// control state, every delta programmed in-band by the programmer
// newProg makes, fast enough that admissions meet ports mid-reprogram
// and retry, and releases land on them and chain.
func runInbandChurn(t *testing.T, newProg func(*sim.Engine, *Manager) (admission.Programmer, *Costs)) inbandRun {
	t.Helper()
	const lifecycles, meanGapBT, meanHoldBT = 1500, 256, 16_384
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
	prog, costs := newProg(eng, m)
	cs.Adm.SetProgrammer(prog)

	var run inbandRun
	var ports []*core.PortTable
	eachPortTable(cs.Ports, func(pt *core.PortTable) { ports = append(ports, pt) })
	for i, pt := range ports {
		pt.OnSwap(func(code int32) {
			run.swaps = append(run.swaps, fmt.Sprintf("port %d at %d", code, eng.Now()))
		}, int32(i))
	}

	src := traffic.NewSource(sl.DefaultLevels, topo.NumHosts(), 8)
	rng := rand.New(rand.NewSource(7))
	arrivals := 0
	var arrive func()
	arrive = func() {
		if arrivals == lifecycles {
			return
		}
		n := arrivals
		arrivals++
		eng.After(1+int64(rng.ExpFloat64()*meanGapBT), arrive)
		hold := 1 + int64(rng.ExpFloat64()*meanHoldBT)
		cs.Adm.AdmitWithRetry(eng, src.Next(), admission.DefaultRetryPolicy(), func(conn *admission.Conn, err error) {
			run.outcomes = append(run.outcomes, fmt.Sprintf("arrival %d at %d: %v", n, eng.Now(), err))
			if err != nil {
				return
			}
			eng.After(hold, func() {
				if err := cs.Adm.Release(conn); err != nil {
					t.Error(err)
				}
			})
		})
	}
	eng.After(1, arrive)
	eng.RunWhile(func() bool { return true })

	if err := cs.Adm.CheckInvariants(); err != nil {
		t.Error(err)
	}
	for _, pt := range ports {
		run.reconfig.Add(pt.Stats())
		if pt.Programming() || pt.Active().High != pt.Allocator().Table().High {
			t.Error("a port is still programming, or its active table is not its shadow, at the end")
		}
	}
	run.costs, run.events = *costs, eng.Executed()
	return run
}

// TestInbandEventsPerTransaction budgets the control path's events on a
// fire-and-forget churn run: a transaction's SMPs land on one event, at
// the last one's arrival time, where they used to land on one event
// each.  The SMPs are still all encoded, accounted and parsed, so the
// run must match the per-block reference in every admission and
// refusal and its instant, every swap's port and instant, the ports'
// ReconfigStats and the MAD Costs, while executing exactly one control
// event per transaction (of 1 to 4 SMPs).
func TestInbandEventsPerTransaction(t *testing.T) {
	got := runInbandChurn(t, func(eng *sim.Engine, m *Manager) (admission.Programmer, *Costs) {
		p := NewInbandProgrammer(eng, m)
		return p, &p.Costs
	})
	want := runInbandChurn(t, func(eng *sim.Engine, m *Manager) (admission.Programmer, *Costs) {
		p := &perBlockProgrammer{eng: eng, m: m}
		return p, &p.costs
	})
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"outcomes", got.outcomes, want.outcomes},
		{"swaps", got.swaps, want.swaps},
		{"ReconfigStats", got.reconfig, want.reconfig},
		{"Costs", got.costs, want.costs},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s differ from the per-block reference", c.what)
		}
	}
	// Every other event — arrivals, retries, holds — is the reference's,
	// which ran one control event per SMP.
	txns, mads := uint64(got.reconfig.Programs), uint64(got.costs.MADs)
	if control := got.events + mads - want.events; control != txns {
		t.Errorf("%d control events for %d transactions, want one each", control, txns)
	}
	if txns == 0 || mads <= txns || got.reconfig.Swaps != got.reconfig.Programs {
		t.Errorf("run programmed %d transactions, %d MADs, %d swaps: want multi-block transactions that all swap", txns, mads, got.reconfig.Swaps)
	}
	t.Logf("%d events (reference %d) for %d transactions of %d MADs, %d outcomes, %d swaps",
		got.events, want.events, txns, mads, len(got.outcomes), len(got.swaps))
}
