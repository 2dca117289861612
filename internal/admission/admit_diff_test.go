package admission

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// diffFabrics are the three topology classes the decide pass is held to
// the reference on.
var diffFabrics = []topology.Spec{
	{Class: topology.Irregular, Switches: 8, Seed: 3},
	{Class: topology.FatTree, K: 4},
	{Class: topology.Dragonfly, A: 3, P: 2, H: 1},
}

// gateProgrammer delivers every block of a delta at once while open;
// while closed it holds them, leaving their ports mid-reprogram until
// the gate opens again.
type gateProgrammer struct {
	captureProgrammer
	closed bool
}

func (p *gateProgrammer) Program(id PortID, pt *core.PortTable, d *core.Delta) error {
	if p.closed {
		return p.captureProgrammer.Program(id, pt, d)
	}
	return deliver(pt, *d)
}

// open delivers the held deltas, then programs what changed on their
// ports in the meantime.
func (p *gateProgrammer) open(c *Controller) error {
	p.closed = false
	if err := p.release(); err != nil {
		return err
	}
	c.ReprogramStale()
	return nil
}

// newPolicyController builds a controller over spec's fabric whose port
// tables place with policy p, wired as the fabric wires its own: the
// routing engine's mapping, collapsed distances where lanes are shared.
func newPolicyController(t *testing.T, spec topology.Spec, p core.Policy) *Controller {
	t.Helper()
	topo, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	routes, err := routing.ComputeFor(topo)
	if err != nil {
		t.Fatal(err)
	}
	mapping, dataVLs, err := sl.MappingFor(0, routes.Planes())
	if err != nil {
		t.Fatal(err)
	}
	ports := NewPorts(topo, arbtable.UnlimitedHigh, nil)
	for h := range ports.Host {
		ports.Host[h] = core.NewPortTableWithPolicy(arbtable.New(arbtable.UnlimitedHigh), p)
	}
	for s := range ports.Switch {
		for q := range ports.Switch[s] {
			ports.Switch[s][q] = core.NewPortTableWithPolicy(arbtable.New(arbtable.UnlimitedHigh), p)
		}
	}
	c := NewController(topo, routes, mapping, ports)
	// A quarter of the paper's cap, so that ports run out of budget as
	// often as of entries.
	c.Budget = sl.MaxReservableWeight / 4
	if dataVLs > 0 && dataVLs < arbtable.NumDataVLs {
		c.Distances = sl.EffectiveDistances(sl.DefaultLevels, mapping)
	}
	return c
}

// admitDiff drives two controllers over identical fabrics, one admitting
// with Admit and the other with the retired refAdmit, through one script
// — the same requests, releases, quarantined ports and held deltas —
// and compares them after every call.
type admitDiff struct {
	t                *testing.T
	got, ref         *Controller
	gotProg, refProg *gateProgrammer
	gotLive, refLive []*Conn
	down             map[PortID]bool

	admitted, laterHop int
	refusals           map[error]int
}

func newAdmitDiff(t *testing.T, spec topology.Spec, p core.Policy) *admitDiff {
	d := &admitDiff{
		t:        t,
		got:      newPolicyController(t, spec, p),
		ref:      newPolicyController(t, spec, p),
		gotProg:  &gateProgrammer{},
		refProg:  &gateProgrammer{},
		down:     make(map[PortID]bool),
		refusals: make(map[error]int),
	}
	d.got.SetProgrammer(d.gotProg)
	d.ref.SetProgrammer(d.refProg)
	isDown := func(id PortID) bool { return d.down[id] }
	d.got.Down, d.ref.Down = isDown, isDown
	return d
}

func (d *admitDiff) admit(req traffic.Request) {
	d.t.Helper()
	op := fmt.Sprintf("Admit(%+v)", req)
	got, gerr := d.got.Admit(req)
	want, werr := d.ref.refAdmit(req)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		d.t.Fatalf("%s: error %v, reference error %v", op, gerr, werr)
	}
	if gerr != nil {
		for _, class := range []error{core.ErrNoSpace, ErrOverBudget, ErrHopBusy, ErrHopDown} {
			if errors.Is(gerr, class) {
				d.refusals[class]++
			}
		}
		var he *hopError
		if errors.As(gerr, &he) && he.hop > 1 {
			d.laterHop++
		}
		d.compare(op)
		return
	}
	if got.ID != want.ID || got.Weight != want.Weight || len(got.hops) != len(want.hops) || got.Deadline != want.Deadline ||
		fmt.Sprint(got.Sites()) != fmt.Sprint(want.Sites()) {
		d.t.Fatalf("%s: connection %+v, reference %+v", op, got, want)
	}
	d.admitted++
	d.gotLive, d.refLive = append(d.gotLive, got), append(d.refLive, want)
	d.compare(op)
}

func (d *admitDiff) release(k int) {
	d.t.Helper()
	op := fmt.Sprintf("Release(%d)", d.gotLive[k].ID)
	gerr, werr := d.got.Release(d.gotLive[k]), d.ref.Release(d.refLive[k])
	if gerr != nil || werr != nil {
		d.t.Fatalf("%s: error %v, reference error %v", op, gerr, werr)
	}
	last := len(d.gotLive) - 1
	d.gotLive[k], d.refLive[k] = d.gotLive[last], d.refLive[last]
	d.gotLive, d.refLive = d.gotLive[:last], d.refLive[:last]
	d.compare(op)
}

// closeGate makes both programmers hold the deltas they are given.
func (d *admitDiff) closeGate() { d.gotProg.closed, d.refProg.closed = true, true }

// openGate lands what both programmers held.
func (d *admitDiff) openGate() {
	d.t.Helper()
	if !d.gotProg.closed {
		return
	}
	if err := d.gotProg.open(d.got); err != nil {
		d.t.Fatal(err)
	}
	if err := d.refProg.open(d.ref); err != nil {
		d.t.Fatal(err)
	}
	d.compare("open gate")
}

// compare fails the test unless every port of the two controllers
// agrees: shadow and active table bytes, reserved weight, relocations.
func (d *admitDiff) compare(op string) {
	d.t.Helper()
	same := func(id PortID, g, r *core.PortTable) {
		d.t.Helper()
		switch {
		case g.Allocator().Table().High != r.Allocator().Table().High:
			d.t.Fatalf("after %s: %v shadow tables differ\ngot: %v\nref: %v", op, id, g.Allocator().Table().High, r.Allocator().Table().High)
		case g.Active().High != r.Active().High:
			d.t.Fatalf("after %s: %v active tables differ\ngot: %v\nref: %v", op, id, g.Active().High, r.Active().High)
		case g.ReservedWeight() != r.ReservedWeight():
			d.t.Fatalf("after %s: %v reserves %d, reference %d", op, id, g.ReservedWeight(), r.ReservedWeight())
		case g.Allocator().TotalMoves() != r.Allocator().TotalMoves():
			d.t.Fatalf("after %s: %v TotalMoves %d, reference %d", op, id, g.Allocator().TotalMoves(), r.Allocator().TotalMoves())
		}
	}
	for h, g := range d.got.ports.Host {
		same(HostPortID(h), g, d.ref.ports.Host[h])
	}
	for s, row := range d.got.ports.Switch {
		for q, g := range row {
			same(SwitchPortID(s, q), g, d.ref.ports.Switch[s][q])
		}
	}
}

// TestAdmitDecideDifferential holds Admit's read-only decide pass to the
// retired reserve-then-rollback Admit on the three topology classes
// under both placement policies.  One random script per fabric and
// policy offers requests — the traffic source's, a quarter of them at
// eight times the bandwidth, a few malformed — releases random live
// connections, quarantines ports on routed paths, and closes and opens
// the programmers so that hops sit mid-reprogram.  After every call
// both controllers must agree on the decision, the error text, every
// port's shadow and active table bytes, reserved weight and
// relocation count.
func TestAdmitDecideDifferential(t *testing.T) {
	const steps = 3000
	for _, spec := range diffFabrics {
		for _, p := range []core.Policy{core.BitReversal, core.NaturalOrder} {
			spec, p := spec, p
			t.Run(spec.Label()+"/"+p.Name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(spec.Label()))))
				d := newAdmitDiff(t, spec, p)
				hosts := d.got.topo.NumHosts()
				src := traffic.NewSource(sl.DefaultLevels, hosts, 11)
				for i := 0; i < steps; i++ {
					switch k := rng.Intn(100); {
					case k < 65:
						req := src.Next()
						if rng.Intn(4) == 0 {
							req.Mbps *= 8
						}
						if rng.Intn(100) == 0 {
							req.Dst = req.Src
						}
						d.admit(req)
					case k < 75:
						if len(d.gotLive) > 0 {
							d.release(rng.Intn(len(d.gotLive)))
						}
					case k < 78:
						// Quarantine one arbitration point of a routed path.
						a, b := rng.Intn(hosts), rng.Intn(hosts-1)
						if b >= a {
							b++
						}
						path, err := d.got.routes.PathHops(a, b, 0)
						if err != nil {
							t.Fatal(err)
						}
						id, _ := d.got.site(a, path[rng.Intn(len(path))])
						d.down[id] = true
					case k < 80:
						d.down = make(map[PortID]bool)
					case k < 90:
						d.openGate()
					case k < 93:
						d.closeGate()
					}
				}
				for _, class := range []error{core.ErrNoSpace, ErrOverBudget, ErrHopBusy, ErrHopDown} {
					if d.refusals[class] == 0 {
						t.Errorf("script never met a %q refusal: %v", class, d.refusals)
					}
				}
				if d.laterHop == 0 || d.admitted == 0 {
					t.Errorf("%d admitted, %d refused past the first hop: the script missed a path", d.admitted, d.laterHop)
				}
				t.Logf("%d admitted, refusals %v, %d past the first hop", d.admitted, d.refusals, d.laterHop)
				if err := d.got.CheckInvariants(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestRoutedPathsVisitEachSiteOnce: the decide pass is exact only
// because no path crosses one arbitration point twice — otherwise a
// reservation at the first crossing would change the answer at the
// second.  Every routed path of the three classes, whole and repaired
// around a lost link or a crashed switch, must name distinct sites.
// Forwarding does not depend on the base VL, so base 0 stands for all.
func TestRoutedPathsVisitEachSiteOnce(t *testing.T) {
	specs := append([]topology.Spec{{Class: topology.FatTree, K: 8}}, diffFabrics...)
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Label(), func(t *testing.T) {
			topo, err := spec.Generate()
			if err != nil {
				t.Fatal(err)
			}
			distinct := func(what string, tp *topology.Topology, r *routing.Routes) {
				t.Helper()
				c := NewController(tp, r, sl.IdentityMapping(), NewPorts(tp, arbtable.UnlimitedHigh, nil))
				seen := make(map[PortID]bool)
				paths := 0
				for src := 0; src < tp.NumHosts(); src++ {
					for dst := 0; dst < tp.NumHosts(); dst++ {
						path, err := r.PathHops(src, dst, 0)
						if src == dst || err != nil {
							continue // unroutable after a failure
						}
						paths++
						clear(seen)
						for _, h := range path {
							id, _ := c.site(src, h)
							if seen[id] {
								t.Fatalf("%s: path %d->%d crosses %v twice: %+v", what, src, dst, id, path)
							}
							seen[id] = true
						}
					}
				}
				if paths == 0 {
					t.Fatalf("%s: no routed path", what)
				}
			}
			whole, err := routing.ComputeFor(topo)
			if err != nil {
				t.Fatal(err)
			}
			distinct("whole", topo, whole)
			links := topo.Links()
			for i := 0; i < len(links); i += 1 + len(links)/8 {
				degraded := topo.Clone()
				if err := degraded.RemoveLink(links[i].A.Switch, links[i].A.Port); err != nil {
					t.Fatal(err)
				}
				repaired, _, err := routing.Repair(degraded)
				if err != nil {
					t.Fatalf("link %d: %v", i, err)
				}
				distinct("link lost", degraded, repaired)
			}
			for s := 0; s < topo.NumSwitches; s += 1 + topo.NumSwitches/8 {
				degraded := topo.Clone()
				if err := degraded.RemoveSwitch(s); err != nil {
					t.Fatal(err)
				}
				repaired, _, err := routing.Repair(degraded)
				if err != nil {
					t.Fatalf("switch %d: %v", s, err)
				}
				distinct("switch lost", degraded, repaired)
			}
		})
	}
}
