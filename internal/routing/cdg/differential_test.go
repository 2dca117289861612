package cdg_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/routing"
	"repro/internal/routing/cdg"
	"repro/internal/topology"
)

// vlRangeError reports whether err is the out-of-range hop VL error,
// the one outcome the retired walker does not share (it accepted any
// VL the engine emitted).
func vlRangeError(err error) bool {
	return err != nil && strings.Contains(err.Error(), "outside data VLs")
}

// requireSameAsRef runs Verify and VerifyPartial and the retired walker
// in the same mode, and requires Stats, error text and cycle witness to
// be deep-equal.  It returns the Verify error.
func requireSameAsRef(t testing.TB, label string, topo *topology.Topology, eng cdg.Engine) error {
	t.Helper()
	var verifyErr error
	for _, partial := range []bool{false, true} {
		verify := cdg.Verify
		if partial {
			verify = cdg.VerifyPartial
		}
		st, err := verify(topo, eng)
		if !partial {
			verifyErr = err
		}
		if vlRangeError(err) {
			continue
		}
		wantSt, wantErr := cdg.RefVerify(topo, eng, partial)
		if st != wantSt {
			t.Fatalf("%s (partial %v): stats %+v, reference %+v", label, partial, st, wantSt)
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s (partial %v): error %v, reference %v", label, partial, err, wantErr)
		}
		if want, ok := wantErr.(*cdg.CycleError); ok {
			if got, ok := err.(*cdg.CycleError); !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (partial %v): witness %#v, reference %#v", label, partial, err, want)
			}
		}
	}
	return verifyErr
}

// routed generates sp and computes its routes.
func routed(t testing.TB, sp topology.Spec) (*topology.Topology, *routing.Routes) {
	t.Helper()
	topo, err := sp.Generate()
	if err != nil {
		t.Fatalf("%s: %v", sp.Label(), err)
	}
	r, err := routing.ComputeFor(topo)
	if err != nil {
		t.Fatalf("%s: %v", sp.Label(), err)
	}
	return topo, r
}

// requireSameBothPlanes checks a routed topology with its real engine
// and with the escape plane stripped.
func requireSameBothPlanes(t *testing.T, label string, topo *topology.Topology, r *routing.Routes) {
	t.Helper()
	requireSameAsRef(t, label, topo, r)
	requireSameAsRef(t, label+" flat", topo, flatEngine{r})
}

// TestVerifyDifferential holds the memoized verifier to the retired
// walker on every class: irregular networks of 2-32 switches, fat-trees
// k = 2..12, the dragonfly shapes of TestAcyclicDragonfly, the degraded
// fabrics of the repair property test and the cyclic ring — each
// through Verify and VerifyPartial, with the real engine and with the
// escape plane stripped (which makes the dragonflies cyclic).
func TestVerifyDifferential(t *testing.T) {
	t.Run("irregular", func(t *testing.T) {
		for seed := int64(1); seed <= 200; seed++ {
			sp := topology.Spec{Class: topology.Irregular, Switches: 2 + int(seed-1)%31, Seed: seed}
			topo, r := routed(t, sp)
			requireSameBothPlanes(t, fmt.Sprintf("%s seed %d", sp.Label(), seed), topo, r)
		}
	})
	t.Run("fattree", func(t *testing.T) {
		for k := 2; k <= 12; k += 2 {
			topo, r := routed(t, topology.Spec{Class: topology.FatTree, K: k})
			requireSameBothPlanes(t, topo.Spec.Label(), topo, r)
		}
	})
	t.Run("dragonfly", func(t *testing.T) {
		for _, s := range dragonflyShapes {
			topo, r := routed(t, topology.Spec{Class: topology.Dragonfly, A: s[0], P: s[1], H: s[2]})
			requireSameBothPlanes(t, topo.Spec.Label(), topo, r)
		}
	})
	t.Run("degraded", func(t *testing.T) {
		// The shape grid and failure draws of routing's
		// TestRepairSingleFailureProperty.
		shapes := []topology.Spec{
			{Class: topology.Irregular, Switches: 8},
			{Class: topology.FatTree, K: 4},
			{Class: topology.Dragonfly, A: 3, P: 2, H: 1},
		}
		for _, sp := range shapes {
			for seed := int64(1); seed <= 25; seed++ {
				if sp.Class == topology.Irregular {
					sp.Seed = seed
				}
				base, err := sp.Generate()
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed * 7919))
				link := base.Clone()
				links := link.Links()
				l := links[rng.Intn(len(links))]
				if err := link.RemoveLink(l.A.Switch, l.A.Port); err != nil {
					t.Fatal(err)
				}
				crash := base.Clone()
				if err := crash.RemoveSwitch(rng.Intn(crash.NumSwitches)); err != nil {
					t.Fatal(err)
				}
				for _, deg := range []struct {
					mode string
					topo *topology.Topology
				}{{"link", link}, {"switch", crash}} {
					r, _, err := routing.Repair(deg.topo)
					if err != nil {
						t.Fatal(err)
					}
					requireSameBothPlanes(t, fmt.Sprintf("%s seed %d %s failure", sp.Label(), seed, deg.mode), deg.topo, r)
				}
			}
		}
	})
	t.Run("ring", func(t *testing.T) {
		if err := requireSameAsRef(t, "ring", ringTopology(t), ringEngine{}); err == nil {
			t.Fatal("ring verified acyclic")
		}
	})
}

// badVLEngine sends one hop of every route toward switch 0 on VL 15.
type badVLEngine struct{ *routing.Routes }

func (e badVLEngine) HopVLToSwitch(sw, dsw int, base uint8) uint8 {
	if dsw == 0 {
		return 15
	}
	return e.Routes.HopVLToSwitch(sw, dsw, base)
}

// TestVerifierRejectsOutOfRangeVL: a hop VL outside the data VLs is an
// error naming the route, the switch and the VL, not a silent node.
func TestVerifierRejectsOutOfRangeVL(t *testing.T) {
	topo, r := routed(t, topology.Spec{Class: topology.FatTree, K: 4})
	if _, err := cdg.RefVerify(topo, badVLEngine{r}, false); err != nil {
		t.Fatalf("the retired walker rejected it too: %v", err)
	}
	err := requireSameAsRef(t, "bad vl", topo, badVLEngine{r})
	const want = "cdg: route 1->0 (base vl 0) leaves switch 1 on vl 15, outside data VLs 0-14"
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
}

// corruptEngine is a real route set whose next-port matrix and hop
// planes the fuzzer overwrites entry by entry.
type corruptEngine struct {
	r     *routing.Routes
	next  [][]int
	flip  [][]bool  // hop moved to the other VL plane
	badVL [][]uint8 // hop VL overridden when non-zero
}

func newCorruptEngine(topo *topology.Topology, r *routing.Routes) *corruptEngine {
	n := topo.NumSwitches
	e := &corruptEngine{r: r, next: make([][]int, n), flip: make([][]bool, n), badVL: make([][]uint8, n)}
	for s := range n {
		e.next[s] = make([]int, n)
		e.flip[s] = make([]bool, n)
		e.badVL[s] = make([]uint8, n)
		for d := range n {
			e.next[s][d] = r.NextPortToSwitch(s, d)
		}
	}
	return e
}

func (e *corruptEngine) NextPortToSwitch(sw, dsw int) int { return e.next[sw][dsw] }
func (e *corruptEngine) BaseVLs() int                     { return e.r.BaseVLs() }
func (e *corruptEngine) HopVLToSwitch(sw, dsw int, base uint8) uint8 {
	if v := e.badVL[sw][dsw]; v != 0 {
		return v
	}
	vl := e.r.HopVLToSwitch(sw, dsw, base)
	if e.flip[sw][dsw] {
		// 0-6 <-> 7-13, 14 -> 7: the dragonfly's two planes.
		if vl < 7 {
			return vl + 7
		}
		return vl - 7
	}
	return vl
}

// fuzzShapes are the small fabrics FuzzVerify corrupts.
var fuzzShapes = []topology.Spec{
	{Class: topology.Irregular, Switches: 2},
	{Class: topology.Irregular, Switches: 6},
	{Class: topology.Irregular, Switches: 12},
	{Class: topology.FatTree, K: 2},
	{Class: topology.FatTree, K: 4},
	{Class: topology.Dragonfly, A: 2, P: 1, H: 1},
	{Class: topology.Dragonfly, A: 3, P: 2, H: 1},
}

// FuzzVerify corrupts a real route set — forwarding loops, dead ports,
// -1 mid-route and at the source, plane flips, the odd out-of-range VL —
// and requires the memoized verifier to agree with the retired walker
// on Stats, error text and cycle witness, through Verify and
// VerifyPartial.  Each 4-byte group of ops is one overwrite: kind,
// switch, destination, argument.
func FuzzVerify(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{})
	f.Add(uint8(1), int64(3), []byte{0, 3, 1, 2, 0, 1, 3, 0})       // irregular: rerouted hops
	f.Add(uint8(4), int64(0), []byte{1, 0, 5, 31})                  // fat-tree: dead port
	f.Add(uint8(4), int64(0), []byte{2, 12, 0, 0})                  // fat-tree: -1 mid-route
	f.Add(uint8(4), int64(0), []byte{2, 0, 1, 0, 2, 2, 3, 0})       // fat-tree: -1 at sources
	f.Add(uint8(6), int64(0), []byte{3, 0, 4, 0, 3, 1, 5, 0})       // dragonfly: plane flips
	f.Add(uint8(5), int64(0), []byte{3, 0, 2, 0, 3, 1, 3, 0})       // dragonfly: plane flips
	f.Add(uint8(2), int64(9), []byte{0, 1, 5, 1, 0, 4, 5, 3})       // irregular: possible loop
	f.Add(uint8(3), int64(0), []byte{4, 0, 1, 3, 0, 1, 0, 1})       // bad VL, rerouted hop
	f.Add(uint8(6), int64(0), []byte{0, 3, 7, 2, 2, 4, 7, 0, 1, 5}) // mixed, trailing bytes
	f.Add(uint8(4), int64(0), []byte{3, 0, 1, 0})                   // fat-tree: plane flip, not separable
	f.Add(uint8(6), int64(0), []byte{3, 0, 4, 0})                   // dragonfly: plane flip, still separable
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, ops []byte) {
		sp := fuzzShapes[int(shape)%len(fuzzShapes)]
		if sp.Class == topology.Irregular {
			sp.Seed = seed
		}
		topo, r := routed(t, sp)
		e := newCorruptEngine(topo, r)
		n := topo.NumSwitches
		for ; len(ops) >= 4; ops = ops[4:] {
			sw, dsw, arg := int(ops[1])%n, int(ops[2])%n, int(ops[3])
			switch ops[0] % 5 {
			case 0: // reroute through some neighbor: loops, detours
				if nb := topo.Neighbors(sw); len(nb) > 0 {
					e.next[sw][dsw] = nb[arg%len(nb)].Port
				}
			case 1: // any port, wired or not: dead ports
				e.next[sw][dsw] = arg % topology.SwitchPorts
			case 2: // unroutable: at a source or mid-route
				e.next[sw][dsw] = -1
			case 3:
				e.flip[sw][dsw] = !e.flip[sw][dsw]
			case 4:
				e.badVL[sw][dsw] = 15 + uint8(arg%8)
			}
		}
		requireSameAsRef(t, sp.Label(), topo, e)
	})
}

// requireBases holds eng's proof to the retired walker and requires it
// to have walked want base VLs, through Verify and VerifyPartial.  It
// returns the Verify error.
func requireBases(t *testing.T, label string, topo *topology.Topology, eng cdg.Engine, want int) error {
	t.Helper()
	err := requireSameAsRef(t, label, topo, eng)
	for _, partial := range []bool{false, true} {
		if _, got, _ := cdg.VerifyBases(topo, eng, partial); got != want {
			t.Fatalf("%s (partial %v): the proof walked %d base VLs, want %d", label, partial, got, want)
		}
	}
	return err
}

// shiftEngine raises the hop VLs toward destination dsw by shift, at
// switch sw alone or at every switch when sw < 0, modulo the data VLs
// when wrap is set.
type shiftEngine struct {
	*routing.Routes
	sw, dsw int
	shift   uint8
	wrap    bool
}

func (e shiftEngine) HopVLToSwitch(sw, dsw int, base uint8) uint8 {
	vl := e.Routes.HopVLToSwitch(sw, dsw, base)
	if dsw != e.dsw || (e.sw >= 0 && sw != e.sw) {
		return vl
	}
	if vl += e.shift; e.wrap {
		vl %= 15
	}
	return vl
}

// ring15Engine is the clockwise ring on all 15 base VLs: separable,
// but cyclic on every one of them.
type ring15Engine struct{ ringEngine }

func (ring15Engine) BaseVLs() int { return 15 }

// TestVerifySeparable: the proof walks base VL 0 alone exactly when
// every hop VL is plane-separable and the base-0 graph is acyclic, and
// walks every base VL otherwise; either way Stats, error text and cycle
// witness are the retired walker's.
func TestVerifySeparable(t *testing.T) {
	t.Run("shipped", func(t *testing.T) {
		for seed := int64(1); seed <= 50; seed++ {
			sp := topology.Spec{Class: topology.Irregular, Switches: 2 + int(seed-1)%31, Seed: seed}
			topo, r := routed(t, sp)
			requireBases(t, fmt.Sprintf("%s seed %d", sp.Label(), seed), topo, r, 1)
		}
		for k := 2; k <= 12; k += 2 {
			topo, r := routed(t, topology.Spec{Class: topology.FatTree, K: k})
			requireBases(t, topo.Spec.Label(), topo, r, 1)
		}
		for _, s := range dragonflyShapes {
			topo, r := routed(t, topology.Spec{Class: topology.Dragonfly, A: s[0], P: s[1], H: s[2]})
			requireBases(t, topo.Spec.Label(), topo, r, 1)
		}
	})
	t.Run("repair fallback", func(t *testing.T) {
		// A dragonfly (3,2,1) joins each pair of groups by one global
		// link; losing one strands minimal routing, so Repair falls back
		// to up*/down* on two planes with the identity hop VL.
		base, err := topology.Spec{Class: topology.Dragonfly, A: 3, P: 2, H: 1}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		fellBack := 0
		for _, l := range base.Links() {
			topo := base.Clone()
			if err := topo.RemoveLink(l.A.Switch, l.A.Port); err != nil {
				t.Fatal(err)
			}
			r, rep, err := routing.Repair(topo)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.FellBack {
				continue
			}
			fellBack++
			if r.Planes() != 2 || r.HopVLToSwitch(0, 1, 3) != 3 {
				t.Fatalf("link %v: fallback has %d planes, hop VL %d for base 3", l, r.Planes(), r.HopVLToSwitch(0, 1, 3))
			}
			requireBases(t, fmt.Sprintf("link %v", l), topo, r, 1)
		}
		if fellBack == 0 {
			t.Fatal("no link failure made Repair fall back")
		}
	})
	t.Run("one hop shifted", func(t *testing.T) {
		topo, r := routed(t, topology.Spec{Class: topology.FatTree, K: 4})
		requireBases(t, "shift 0->1 by 7", topo, shiftEngine{Routes: r, sw: 0, dsw: 1, shift: 7, wrap: true}, 15)
	})
	t.Run("one destination plus one", func(t *testing.T) {
		topo, r := routed(t, topology.Spec{Class: topology.FatTree, K: 4})
		eng := shiftEngine{Routes: r, sw: -1, dsw: 1, shift: 1}
		err := requireBases(t, "toward 1 plus one", topo, eng, 15)
		const want = "cdg: route 0->1 (base vl 14) leaves switch 0 on vl 15, outside data VLs 0-14"
		if err == nil || err.Error() != want {
			t.Fatalf("error %v, want %q", err, want)
		}
	})
	t.Run("plane flip", func(t *testing.T) {
		// The fat-tree has one plane, so a flipped hop moves base b to
		// b ± 7: not separable.  The dragonfly's flip swaps its two
		// planes, which keeps every hop separable, and this one closes
		// no cycle.
		topo, r := routed(t, topology.Spec{Class: topology.FatTree, K: 4})
		e := newCorruptEngine(topo, r)
		e.flip[0][1] = true
		requireBases(t, "fat-tree flip", topo, e, 15)
		topo, r = routed(t, topology.Spec{Class: topology.Dragonfly, A: 3, P: 2, H: 1})
		e = newCorruptEngine(topo, r)
		e.flip[0][4] = true
		requireBases(t, "dragonfly flip", topo, e, 1)
	})
	t.Run("ring", func(t *testing.T) {
		err := requireBases(t, "ring 15", ringTopology(t), ring15Engine{}, 15)
		if _, ok := err.(*cdg.CycleError); !ok {
			t.Fatalf("want a cycle witness, got %T: %v", err, err)
		}
	})
}
