package subnet

import (
	"testing"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

func newProgrammerFixture(t *testing.T) (*sim.Engine, *InbandProgrammer, *core.PortTable) {
	t.Helper()
	topo, err := topology.Generate(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(topo)
	if _, err := m.Discover(); err != nil {
		t.Fatal(err)
	}
	eng := &sim.Engine{}
	return eng, NewInbandProgrammer(eng, m), core.NewPortTable(arbtable.New(arbtable.UnlimitedHigh))
}

// TestInbandProgramTakesWireTime: the delta does not land
// instantaneously — the port stays mid-reprogram for the SMPs' wire
// and path time, and the active table swaps only at arrival.
func TestInbandProgramTakesWireTime(t *testing.T) {
	eng, prog, pt := newProgrammerFixture(t)
	if _, err := pt.Reserve(2, 4, 300); err != nil {
		t.Fatal(err)
	}
	d, err := pt.BeginProgram()
	if err != nil {
		t.Fatal(err)
	}
	id := admission.HostPortID(5)
	if err := prog.Program(id, pt, d); err != nil {
		t.Fatal(err)
	}
	if prog.Costs.MADs != len(d.Blocks()) {
		t.Errorf("accounted %d MADs, want %d", prog.Costs.MADs, len(d.Blocks()))
	}

	// Nothing has arrived yet.
	if !pt.Programming() {
		t.Fatal("program landed with no simulated time elapsed")
	}
	eng.Run(madWireBytes) // first SMP still on the wire (path adds more)
	if !pt.Programming() {
		t.Fatal("program landed before the path latency passed")
	}

	eng.RunWhile(func() bool { return true })
	if pt.Programming() || pt.Dirty() {
		t.Fatalf("program still pending after drain (programming=%v dirty=%v)",
			pt.Programming(), pt.Dirty())
	}
	if pt.Active().High != pt.Allocator().Table().High {
		t.Error("active table differs from shadow after the delta landed")
	}
	if s := pt.Stats(); s.Swaps != 1 || s.TornAborts != 0 {
		t.Errorf("stats = %+v, want one clean swap", s)
	}
	if eng.Now() < madWireBytes {
		t.Errorf("drain finished at t=%d, under one MAD wire time", eng.Now())
	}
}

// TestInbandProgramChainsNextTransaction: a shadow change made while
// a delta is in flight is picked up automatically when the delta
// lands, without the admission controller doing anything.
func TestInbandProgramChainsNextTransaction(t *testing.T) {
	eng, prog, pt := newProgrammerFixture(t)
	if _, err := pt.Reserve(2, 4, 300); err != nil {
		t.Fatal(err)
	}
	d, err := pt.BeginProgram()
	if err != nil {
		t.Fatal(err)
	}
	id := admission.SwitchPortID(1, 3)
	if err := prog.Program(id, pt, d); err != nil {
		t.Fatal(err)
	}
	// While the SMPs fly, another connection reserves on this port.
	if _, err := pt.Reserve(5, 8, 90); err != nil {
		t.Fatal(err)
	}
	if !pt.Dirty() {
		t.Fatal("second reservation did not dirty the shadow")
	}

	eng.RunWhile(func() bool { return true })
	if pt.Programming() || pt.Dirty() {
		t.Fatal("chained transaction did not run to completion")
	}
	if pt.Active().High != pt.Allocator().Table().High {
		t.Error("active != shadow after chained programming")
	}
	if s := pt.Stats(); s.Programs != 2 || s.Swaps != 2 {
		t.Errorf("stats = %+v, want two chained programs", s)
	}
}
