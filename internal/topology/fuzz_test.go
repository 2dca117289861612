package topology_test

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/routing/cdg"
	"repro/internal/topology"
)

// FuzzTopologyGenerate drives every generator through arbitrary
// class/shape/seed inputs: a spec either fails Generate with a clean
// error, or the topology it returns must be structurally valid,
// connected, routable by its class engine, and — the expensive oracle,
// applied to small shapes — free of channel-dependency cycles.
//
// The seed corpus pins the degenerate shapes: the 1-switch irregular
// network (must error: the paper's generator needs two), odd fat-tree
// arities (must error: ports split evenly up/down), the a=1 dragonfly
// (must succeed: groups of a single switch have no local links at all)
// and the first irregular size past MaxIrregularSwitches (must error).
func FuzzTopologyGenerate(f *testing.F) {
	f.Add(uint8(0), 1, 0, 0, int64(1))  // 1-switch irregular: error
	f.Add(uint8(0), 2, 0, 0, int64(1))  // minimal irregular
	f.Add(uint8(0), 16, 0, 0, int64(7)) // typical irregular
	f.Add(uint8(1), 3, 0, 0, int64(0))  // odd k: error
	f.Add(uint8(1), 2, 0, 0, int64(0))  // smallest fat-tree
	f.Add(uint8(1), 8, 0, 0, int64(0))  // full-radix fat-tree
	f.Add(uint8(2), 1, 1, 1, int64(0))  // a=1 dragonfly: no local links
	f.Add(uint8(2), 2, 1, 1, int64(0))
	f.Add(uint8(2), 4, 2, 2, int64(0)) // radix-filling dragonfly
	f.Add(uint8(2), 7, 1, 1, int64(0)) // a too large for the radix: error
	// Past the irregular size cap: error.
	f.Add(uint8(0), topology.MaxIrregularSwitches+1, 0, 0, int64(1))

	f.Fuzz(func(t *testing.T, class uint8, x, y, z int, seed int64) {
		var spec topology.Spec
		switch class % 3 {
		case 0:
			// Bound the size: the generator is quadratic-ish and the
			// fuzzer does not need big networks to find structure bugs.
			// Sizes past the cap are passed through: refusing them is
			// cheap and must happen.
			spec = topology.Spec{Class: topology.Irregular, Switches: x % 33, Seed: seed}
			if x > topology.MaxIrregularSwitches {
				spec.Switches = x
			}
		case 1:
			spec = topology.Spec{Class: topology.FatTree, K: x % 11}
		case 2:
			spec = topology.Spec{Class: topology.Dragonfly, A: x % 9, P: y % 9, H: z % 9}
		}
		topo, err := spec.Generate()
		if err != nil {
			return // clean rejection of a bad shape
		}
		if spec.Switches > topology.MaxIrregularSwitches {
			t.Fatalf("%v: accepted past the %d-switch cap", spec, topology.MaxIrregularSwitches)
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("%v: generated invalid topology: %v", spec, err)
		}
		if !topo.Connected() {
			t.Fatalf("%v: generated disconnected topology", spec)
		}
		if topo.NumHosts() == 0 {
			t.Fatalf("%v: generated hostless topology", spec)
		}
		r, err := routing.ComputeFor(topo)
		if err != nil {
			t.Fatalf("%v: routing failed on valid topology: %v", spec, err)
		}
		for h := 0; h < topo.NumHosts(); h++ {
			sw, port := topo.HostSwitch(h)
			if topo.HostAt(sw, port) != h {
				t.Fatalf("%v: host table asymmetry at host %d", spec, h)
			}
			if p := r.NextPort(sw, h); p != port {
				t.Fatalf("%v: delivery port of host %d is %d, want %d", spec, h, p, port)
			}
		}
		if topo.NumSwitches <= 24 {
			if _, err := cdg.Verify(topo, r); err != nil {
				t.Fatalf("%v: %v", spec, err)
			}
		}
	})
}
