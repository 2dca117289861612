package subnet

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/mad"
	"repro/internal/sim"
)

// perBlockProgrammer is the delivery protocol on a perfect management
// network as it ran before a transaction's SMPs and responses flew
// together: every SMP is its own event at its own arrival time, which
// parses the SMP, stages its block and sends the response back, and
// every response is its own event, the last of a transaction chaining
// the next.  A transaction that opens while the responses of the
// port's previous one are still in the air supersedes it.  (Its
// timers, which a perfect network cancels before they fire, are left
// out.)  It is kept as the reference TestInbandEventsPerTransaction
// holds the one protocol to.
type perBlockProgrammer struct {
	eng   *sim.Engine
	m     *Manager
	costs Costs
	open  map[*core.PortTable]*perBlockTxn
}

// perBlockTxn is one transaction under the reference: its responses
// still to come.
type perBlockTxn struct {
	id      admission.PortID
	pt      *core.PortTable
	pending int
}

// perBlockSMP is one SMP in flight under the reference.
type perBlockSMP struct {
	tx   *perBlockTxn
	wire [mad.Size]byte
}

// The reference's event kinds: an SMP lands at its port (P is the
// *perBlockSMP), or a response lands at the SM (P is the *perBlockTxn).
const (
	refSMP sim.Kind = iota
	refResponse
)

func (p *perBlockProgrammer) Program(id admission.PortID, pt *core.PortTable, d *core.Delta) error {
	blocks := d.Blocks()
	hops := p.m.hopsToPort(id)
	tx := &perBlockTxn{id: id, pt: pt, pending: len(blocks)}
	for k := range blocks {
		smp := &perBlockSMP{tx: tx}
		encodeBlock(&smp.wire, d.Version, len(blocks), &blocks[k])
		p.costs.addMAD(hops)
		p.eng.PostAfter(int64(k+1)*madWireBytes+oneWayBT(hops), p, sim.Event{Kind: refSMP, P: smp})
	}
	p.open[pt] = tx
	return nil
}

func (p *perBlockProgrammer) HandleEvent(ev sim.Event) {
	if ev.Kind == refSMP {
		smp := ev.P.(*perBlockSMP)
		var blk [core.BlockEntries]arbtable.Entry
		version, index, total, err := mad.DecodeHighBlock(smp.wire[:], &blk)
		if err == nil {
			_, err = smp.tx.pt.DeliverBlock(version, index, total, &blk)
		}
		if err != nil {
			panic(err)
		}
		p.eng.PostAfter(madWireBytes+oneWayBT(p.m.hopsToPort(smp.tx.id)), p, sim.Event{Kind: refResponse, P: smp.tx})
		return
	}
	tx := ev.P.(*perBlockTxn)
	if tx.pending--; tx.pending > 0 || p.open[tx.pt] != tx {
		return
	}
	delete(p.open, tx.pt)
	if tx.pt.Programming() {
		return
	}
	if d, _ := tx.pt.BeginProgram(); d != nil {
		if err := p.Program(tx.id, tx.pt, d); err != nil {
			panic(err)
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

// runInbandChurn drives connection churn over the k=8 control state,
// every delta programmed in-band by the programmer newProg makes, fast
// enough that admissions meet ports mid-reprogram and retry, and
// releases land on them and chain.  onSwap sees every port as its
// table swaps.
func runInbandChurn(t *testing.T, newProg func(*sim.Engine, *Manager) (admission.Programmer, *Costs), onSwap func(*core.PortTable)) inbandRun {
	t.Helper()
	cs, m := controlK8(t)
	eng := &sim.Engine{}
	prog, costs := newProg(eng, m)
	cs.Adm.SetProgrammer(prog)

	var run inbandRun
	var ports []*core.PortTable
	cs.Ports.Each(func(_ admission.PortID, pt *core.PortTable) { ports = append(ports, pt) })
	for i, pt := range ports {
		pt.OnSwap(func(code int32) {
			run.swaps = append(run.swaps, fmt.Sprintf("port %d at %d", code, eng.Now()))
			onSwap(ports[code])
		}, int32(i))
	}
	churnLifecycles(t, eng, cs.Adm, 1500, 256, 16_384, func(i int, err error) {
		run.outcomes = append(run.outcomes, fmt.Sprintf("arrival %d at %d: %v", i, eng.Now(), err))
	})

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
// churn run over a perfect management network: a transaction's SMPs
// land on one event, at the last one's arrival time, and their
// responses come back on one more event only when they chain the next
// transaction — where the per-block protocol ran an event per SMP and
// one per response.  The SMPs are still all encoded, accounted and
// parsed, so the run must match the per-block reference in every
// admission and refusal and its instant, every swap's port and instant,
// the ports' ReconfigStats and the MAD Costs, while executing exactly
// one control event per transaction (of 1 to 4 SMPs) plus one per
// transaction whose port's shadow moved on while it flew.
func TestInbandEventsPerTransaction(t *testing.T) {
	dirty := 0 // swaps that find the shadow already moved on
	got := runInbandChurn(t, func(eng *sim.Engine, m *Manager) (admission.Programmer, *Costs) {
		p := NewInbandProgrammer(eng, m)
		return p, &p.Costs
	}, func(pt *core.PortTable) {
		if pt.Dirty() {
			dirty++
		}
	})
	want := runInbandChurn(t, func(eng *sim.Engine, m *Manager) (admission.Programmer, *Costs) {
		p := &perBlockProgrammer{eng: eng, m: m, open: make(map[*core.PortTable]*perBlockTxn)}
		return p, &p.costs
	}, func(*core.PortTable) {})
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
	// which ran two control events per SMP.
	txns, mads := uint64(got.reconfig.Programs), uint64(got.costs.MADs)
	if control := got.events + 2*mads - want.events; control != txns+uint64(dirty) {
		t.Errorf("%d control events for %d transactions, %d of them chaining: want one each, and one more per chain", control, txns, dirty)
	}
	if txns == 0 || mads <= txns || dirty == 0 || got.reconfig.Swaps != got.reconfig.Programs {
		t.Errorf("run programmed %d transactions, %d MADs, %d swaps, %d on a moved shadow: want multi-block transactions that all swap, some chaining", txns, mads, got.reconfig.Swaps, dirty)
	}
	t.Logf("%d events (reference %d) for %d transactions of %d MADs, %d chaining, %d outcomes, %d swaps",
		got.events, want.events, txns, mads, dirty, len(got.outcomes), len(got.swaps))
}
