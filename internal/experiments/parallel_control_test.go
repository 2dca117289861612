package experiments

import (
	"reflect"
	"testing"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/sl"
	"repro/internal/subnet"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestParallelControlChurn: churn must run on the parallel core — no
// det forcing — with the control plane serialized at window barriers,
// and still pass every invariant audit the single-engine run proves.
// (ci.sh re-runs this test under -race: the control lane must never
// touch shard state while a window is in flight.)
func TestParallelControlChurn(t *testing.T) {
	sc := ChurnScenario(Tiny).seeded(42)
	sc.Fabric.Shards = 2
	res, err := runChurn(sc)
	if err != nil {
		t.Fatalf("parallel churn: %v", err)
	}
	if !res.Parallel {
		t.Fatalf("churn at %d shards did not run the parallel coordinator", sc.Fabric.Shards)
	}
	if res.Windows == 0 {
		t.Error("parallel churn reports zero sync windows")
	}
	if got := res.Admitted + res.RejectedBusy + res.RejectedCapacity; got != res.Offered {
		t.Errorf("admission outcomes %d != offered %d", got, res.Offered)
	}
	if res.Released != res.Admitted {
		t.Errorf("released %d != admitted %d", res.Released, res.Admitted)
	}
	if res.Admitted == 0 {
		t.Error("parallel churn admitted nothing")
	}
}

// TestParallelControlFaults: the full hardened control plane —
// reliable retransmission, transaction deadlines, the self-healing
// audit — under injected faults on the parallel core.  The control
// counters must show cross-shard MAD traffic and barrier-serialized
// control events.
func TestParallelControlFaults(t *testing.T) {
	sc := FaultsScenario(Tiny)
	sc.Fabric.Shards = 2
	res, err := runFaults(sc)
	if err != nil {
		t.Fatalf("parallel faults: %v", err)
	}
	if !res.Parallel {
		t.Fatalf("faults at %d shards did not run the parallel coordinator", sc.Fabric.Shards)
	}
	if res.Windows == 0 {
		t.Error("parallel faults reports zero sync windows")
	}
	if res.Control.CrossShardSent == 0 {
		t.Error("no cross-shard MADs counted on a 2-shard fabric")
	}
	if res.Control.CrossShardDeferred == 0 {
		t.Error("no control events serialized to barriers")
	}
	if got := res.Admitted + res.RejectedBusy + res.RejectedCapacity + res.RejectedDown; got != res.Offered {
		t.Errorf("admission outcomes %d != offered %d", got, res.Offered)
	}
}

// controlDigest captures everything a control-plane transaction script
// is supposed to determine: the final active and shadow bytes of every
// arbitration table, the reconfiguration statistics, the programmer's
// MAD costs, and the control counters (minus the cross-shard tallies,
// which exist only in parallel runs).
type controlDigest struct {
	Active   [][arbtable.TableSize]arbtable.Entry
	Shadow   [][arbtable.TableSize]arbtable.Entry
	Reconfig core.ReconfigStats
	Costs    subnet.Costs
	Control  metrics.ControlCounters
}

// runControlScript builds a fabric over the spec at the given shard
// count, drives a fixed admission/release script as control events
// (no data traffic at all), and digests the final table state.
func runControlScript(t *testing.T, spec topology.Spec, shards int) (controlDigest, int64) {
	t.Helper()
	sc := Scenario{Seed: 7, Topology: spec, Fabric: fabric.DefaultConfig(0, 256, 0), Inband: true, Metrics: true}
	sc.Fabric.Shards = shards
	r, err := build(sc)
	if err != nil {
		t.Fatalf("%s shards=%d: %v", spec.Label(), shards, err)
	}
	net, prog, topo := r.Net, r.prog, r.Net.Topo

	// The script: admissions at fixed control times, every third
	// connection released at a fixed later time.  With no data-plane
	// traffic the whole run is control events, so a parallel run
	// executes the exact event sequence of the single-engine one —
	// serialized at barriers instead of inline.
	src := traffic.NewSource(sl.DefaultLevels, topo.NumHosts(), 11)
	eng := net.Ctrl
	var conns []*admission.Conn
	for i := 0; i < 3*topo.NumHosts(); i++ {
		req := src.Next()
		at := int64(i+1) * 4096
		eng.At(at, func() {
			if conn, err := net.Adm.Admit(req); err == nil {
				conns = append(conns, conn)
			}
		})
	}
	release := int64(3*topo.NumHosts()+2) * 4096
	eng.At(release, func() {
		for i := 0; i < len(conns); i += 3 {
			if err := net.Adm.Release(conns[i]); err != nil {
				t.Errorf("release: %v", err)
			}
		}
	})

	net.RunWhile(func() bool { return true })

	var d controlDigest
	net.Adm.Ports().Each(func(_ admission.PortID, tb *core.PortTable) {
		d.Active = append(d.Active, tb.Active().High)
		d.Shadow = append(d.Shadow, tb.Allocator().Table().High)
	})
	d.Reconfig = net.ReconfigStats()
	d.Costs = prog.Costs
	d.Control = *net.ControlCounters()
	cross := d.Control.CrossShardSent
	d.Control.CrossShardSent = 0
	d.Control.CrossShardDeferred = 0
	if len(conns) == 0 {
		t.Fatalf("%s shards=%d: control script admitted nothing", spec.Label(), shards)
	}
	return d, cross
}

// TestParallelControlConvergence: a cross-shard control transaction
// script must converge to the same table bytes and counters as the
// single-engine run, across partition layouts of all three topology
// classes.  This is the property the serialized control lane exists
// for — barriers change when control runs relative to the data plane,
// never what it computes.
func TestParallelControlConvergence(t *testing.T) {
	layouts := []struct {
		spec   topology.Spec
		shards int
	}{
		{topology.Spec{Class: topology.FatTree, K: 4}, 2},
		{topology.Spec{Class: topology.FatTree, K: 4}, 4},
		{topology.Spec{Class: topology.Dragonfly, A: 2, P: 1, H: 1}, 3},
		{topology.Spec{Class: topology.Irregular, Switches: 6, Seed: 42}, 2},
	}
	for _, l := range layouts {
		want, _ := runControlScript(t, l.spec, 1)
		got, cross := runControlScript(t, l.spec, l.shards)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s shards=%d: control outcome diverged from single-engine run",
				l.spec.Label(), l.shards)
		}
		if cross == 0 {
			t.Errorf("%s shards=%d: no cross-shard MADs counted", l.spec.Label(), l.shards)
		}
	}
}
