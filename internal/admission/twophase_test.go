package admission

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sl"
)

// portSnapshot captures everything admission may touch on one port,
// rendered to strings so comparison is byte-exact.
type portSnapshot struct {
	shadow   string
	active   string
	low      string
	reserved int
	seqs     []string
}

func snap(pt *core.PortTable) portSnapshot {
	sh := pt.Allocator().Table()
	s := portSnapshot{
		shadow:   fmt.Sprintf("%v", sh.High),
		active:   fmt.Sprintf("%v", pt.Active().High),
		low:      fmt.Sprintf("%v", sh.Low),
		reserved: pt.ReservedWeight(),
	}
	for _, q := range pt.Allocator().Sequences() {
		s.seqs = append(s.seqs, q.String())
	}
	return s
}

// pathTables returns the arbitration points Admit visits for a request
// from src to dst on the given base VL, in path order.
func pathTables(t *testing.T, c *Controller, src, dst int, base uint8) []hop {
	t.Helper()
	path, err := c.routes.PathHops(src, dst, base)
	if err != nil {
		t.Fatal(err)
	}
	hops := make([]hop, len(path))
	for i, h := range path {
		hops[i] = newHop(c.site(src, h))
	}
	return hops
}

// TestAbortAtLastHopLeavesEarlierHopsUntouched drives the two-phase
// protocol to its abort path once per refusal class: a 3-hop admission
// (source host interface, source switch uplink, destination switch
// downlink) whose LAST hop refuses — out of table entries, over the
// weight budget, mid-reprogram, or quarantined.  The first two hops
// prepared successfully; the abort must roll them back to
// byte-identical pre-Admit state, and the error must name its class —
// to errors.Is, and in the text the typed error renders on demand,
// which is word for word what fmt.Errorf used to build on every refusal.
func TestAbortAtLastHopLeavesEarlierHopsUntouched(t *testing.T) {
	classes := []error{core.ErrNoSpace, ErrOverBudget, ErrHopBusy, ErrHopDown}
	// saturate fills the destination switch's port to dst from a host on
	// the same switch (2-hop paths: they never touch switch 0's tables).
	saturate := func(t *testing.T, c *Controller, dst int, mbps float64) {
		for i := 0; i < 100; i++ {
			if _, err := c.Admit(req(4, dst, 9, mbps)); err != nil {
				return
			}
		}
		t.Fatal("destination port still has capacity; saturation failed")
	}
	for _, tc := range []struct {
		name  string
		want  error
		setup func(t *testing.T, c *Controller, dst int, last PortID)
		// text is the refusal's message given the last hop's table and
		// the error Admit returned.
		text func(c *Controller, last hop, err error) string
	}{
		// 64 Mbps is weight 523: four slots each and no sharing, so the
		// 64 entries run out at 16 connections, well inside the budget.
		{"no space", core.ErrNoSpace, func(t *testing.T, c *Controller, dst int, _ PortID) {
			saturate(t, c, dst, 64)
		}, func(_ *Controller, _ hop, err error) string {
			return fmt.Sprintf("admission: hop 3/3: %v", errors.Unwrap(err))
		}},
		// 30 Mbps fits one slot but not two to a sequence: the weight
		// budget is spent while a dozen entries are still free.
		{"over budget", ErrOverBudget, func(t *testing.T, c *Controller, dst int, last PortID) {
			saturate(t, c, dst, 30)
			if free := c.ports.Switch[last.Switch][last.Port].Allocator().FreeSlots(); free == 0 {
				t.Fatal("table filled before the budget did")
			}
		}, func(c *Controller, last hop, _ error) string {
			return fmt.Sprintf("admission: hop 3/3 over budget (%d + %d > %d)",
				last.table.ReservedWeight(), sl.WeightForBandwidth(64*c.WireFactor), c.Budget)
		}},
		{"busy", ErrHopBusy, func(t *testing.T, c *Controller, dst int, _ PortID) {
			c.SetProgrammer(&captureProgrammer{})
			if _, err := c.Admit(req(4, dst, 9, 32)); err != nil {
				t.Fatal(err)
			}
		}, func(_ *Controller, last hop, _ error) string {
			return fmt.Sprintf("admission: hop 3/3 (%v): admission: hop mid-reprogram", last.id())
		}},
		{"down", ErrHopDown, func(t *testing.T, c *Controller, _ int, last PortID) {
			c.Down = func(id PortID) bool { return id == last }
		}, func(_ *Controller, last hop, _ error) string {
			return fmt.Sprintf("admission: hop 3/3 (%v): admission: hop down (quarantined)", last.id())
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c, topo := newController(t, 2, 3)
			dst := topo.NumHosts() - 1 // a host on switch 1
			sites := pathTables(t, c, 0, dst, 9)
			if len(sites) != 3 {
				t.Fatalf("path 0->%d has %d arbitration points, want 3", dst, len(sites))
			}
			tc.setup(t, c, dst, sites[2].id())

			before := make([]portSnapshot, len(sites))
			for i, s := range sites {
				before[i] = snap(s.table)
			}

			_, err := c.Admit(req(0, dst, 9, 64))
			if err == nil {
				t.Fatal("admission over the refusing last hop succeeded")
			}
			for _, class := range classes {
				if got, want := errors.Is(err, class), class == tc.want; got != want {
					t.Errorf("errors.Is(%q, %q) = %v, want %v", err, class, got, want)
				}
			}
			if got, want := err.Error(), tc.text(c, sites[2], err); got != want {
				t.Errorf("refusal reads %q, want %q", got, want)
			}

			for i, s := range sites {
				after := snap(s.table)
				if after.shadow != before[i].shadow {
					t.Errorf("hop %d (%v): shadow table changed across aborted admission", i, s.id())
				}
				if after.active != before[i].active {
					t.Errorf("hop %d (%v): active table changed across aborted admission", i, s.id())
				}
				if after.low != before[i].low {
					t.Errorf("hop %d (%v): low table changed across aborted admission", i, s.id())
				}
				if after.reserved != before[i].reserved {
					t.Errorf("hop %d (%v): reserved weight %d, want %d", i, s.id(), after.reserved, before[i].reserved)
				}
				if len(after.seqs) != len(before[i].seqs) {
					t.Errorf("hop %d (%v): %d sequences, want %d", i, s.id(), len(after.seqs), len(before[i].seqs))
					continue
				}
				for k := range after.seqs {
					if after.seqs[k] != before[i].seqs[k] {
						t.Errorf("hop %d (%v): sequence %d = %s, want %s", i, s.id(), k, after.seqs[k], before[i].seqs[k])
					}
				}
				if err := s.table.CheckInvariants(); err != nil {
					t.Errorf("hop %d (%v): %v", i, s.id(), err)
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// captureProgrammer opens transactions but holds the SMPs: ports stay
// mid-reprogram until the test releases the captured deltas, like MADs
// sitting on the wire.
type captureProgrammer struct {
	held []struct {
		pt *core.PortTable
		d  core.Delta
	}
}

func (p *captureProgrammer) Program(id PortID, pt *core.PortTable, d core.Delta) error {
	p.held = append(p.held, struct {
		pt *core.PortTable
		d  core.Delta
	}{pt, d})
	return nil
}

func (p *captureProgrammer) release() error {
	for _, h := range p.held {
		if err := deliver(h.pt, h.d); err != nil {
			return err
		}
	}
	p.held = nil
	return nil
}

// deliver hands every block of a delta to its port, in order.
func deliver(pt *core.PortTable, d core.Delta) error {
	for _, b := range d.Blocks() {
		if _, err := pt.DeliverBlock(d.Version, b.Index, len(d.Blocks()), b.Entries); err != nil {
			return err
		}
	}
	return nil
}

func TestAdmitRejectsBusyHop(t *testing.T) {
	c, topo := newController(t, 2, 4)
	prog := &captureProgrammer{}
	c.SetProgrammer(prog)
	if _, err := c.Admit(req(0, topo.NumHosts()-1, 9, 32)); err != nil {
		t.Fatal(err)
	}
	if !c.Ports().Host[0].Programming() {
		t.Fatal("held programmer did not leave the port mid-reprogram")
	}
	_, err := c.Admit(req(0, topo.NumHosts()-1, 9, 32))
	if !errors.Is(err, ErrHopBusy) {
		t.Fatalf("admission through a mid-reprogram hop = %v, want ErrHopBusy", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAdmitWithRetrySucceedsAfterProgramLands(t *testing.T) {
	c, topo := newController(t, 2, 5)
	prog := &captureProgrammer{}
	c.SetProgrammer(prog)
	if _, err := c.Admit(req(0, topo.NumHosts()-1, 9, 32)); err != nil {
		t.Fatal(err)
	}
	if !c.Ports().Host[0].Programming() {
		t.Fatal("port should be mid-reprogram")
	}

	eng := &sim.Engine{}
	// The held SMPs land at t=5000; until then every retry hits
	// ErrHopBusy and backs off.
	eng.At(5000, func() {
		if err := prog.release(); err != nil {
			t.Errorf("releasing held deltas: %v", err)
		}
	})

	var got *Conn
	var gotErr error
	c.AdmitWithRetry(eng, req(0, topo.NumHosts()-1, 9, 32), RetryPolicy{Attempts: 8, BackoffBT: 1024}, func(conn *Conn, err error) {
		got, gotErr = conn, err
	})
	eng.RunWhile(func() bool { return true })
	if gotErr != nil {
		t.Fatalf("retry admission failed: %v", gotErr)
	}
	if got == nil {
		t.Fatal("no connection returned")
	}
	if eng.Now() < 5000 {
		t.Errorf("admission resolved at t=%d, before the program landed", eng.Now())
	}
}

// TestNewConnIsOneObject: a connection and its copy of the reserved
// hops are a single allocation up to eight hops, the hop list a second
// one beyond; either way the copy is exact and owns its storage.
func TestNewConnIsOneObject(t *testing.T) {
	scratch := make([]hop, 12)
	for i := range scratch {
		scratch[i] = newHop(SwitchPortID(i, i+1), nil)
		scratch[i].res = core.Reservation{Weight: 10 + i}
	}
	for n := 1; n <= len(scratch); n++ {
		conn := newConn(scratch[:n])
		if len(conn.hops) != n {
			t.Fatalf("%d hops: connection holds %d", n, len(conn.hops))
		}
		for i, h := range conn.hops {
			if h != scratch[i] {
				t.Fatalf("%d hops: hop %d = %+v, want %+v", n, i, h, scratch[i])
			}
		}
		if &conn.hops[0] == &scratch[0] {
			t.Fatalf("%d hops: connection aliases the controller's scratch", n)
		}
		want := 1.0
		if n > 8 {
			want = 2
		}
		if allocs := testing.AllocsPerRun(100, func() { conn = newConn(scratch[:n]) }); allocs != want {
			t.Errorf("%d hops: newConn allocates %.0f objects, want %.0f", n, allocs, want)
		}
	}
}
