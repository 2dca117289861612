package fabric

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/sl"
	"repro/internal/traffic"
)

// poolFingerprint runs one loaded network to a fixed horizon and
// returns a byte-exact signature of everything model-visible: totals,
// the clock, the executed-event count, the stale-arrival audit counter
// and the full metrics snapshot (per-VL bytes, scan lengths, queue-
// depth histogram, deadline misses).  Two runs with the same seed must
// produce the same signature regardless of pooling.
func poolFingerprint(t *testing.T, seed int64, disablePools bool) string {
	t.Helper()
	n, err := New(DefaultConfig(4, 256, seed))
	if err != nil {
		t.Fatal(err)
	}
	if disablePools {
		n.disablePools()
	}
	n.EnableMetrics()
	admitFlow(t, n, 0, 9, 5, 30)
	admitFlow(t, n, 4, 13, 2, 3)
	admitFlow(t, n, 1, 12, 9, 64)
	n.AddBestEffort(traffic.BestEffort{Src: 2, Dst: 10, SL: sl.BESL, Mbps: 80})
	n.StartMeasurement()
	n.Start()
	n.Engine.Run(1_200_000)
	inj, del, drop := n.Totals()
	snap, err := json.Marshal(n.Metrics.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("inj=%d del=%d drop=%d now=%d exec=%d stale=%d %s",
		inj, del, drop, n.Engine.Now(), n.Engine.Executed(), n.StaleArrivals(), snap)
}

// TestPooledRunsBitIdentical sweeps seeds and checks that recycling
// packet and event records has no observable effect: a pooled run and
// a pool-disabled run of the same configuration produce byte-identical
// signatures.  This is the determinism argument for the free-lists —
// pooling changes only where records live, never what the model sees.
func TestPooledRunsBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		pooled := poolFingerprint(t, seed, false)
		plain := poolFingerprint(t, seed, true)
		if pooled != plain {
			t.Errorf("seed %d: pooled and pool-disabled runs diverged:\n  pooled: %s\n  plain:  %s",
				seed, pooled, plain)
		}
	}
}

// TestStaleArrivalsStayZero checks the generation counters' audit
// trail: on a correct schedule no arrival event ever finds its packet
// recycled.
func TestStaleArrivalsStayZero(t *testing.T) {
	n := buildNet(t, 4, 256, 7)
	admitFlow(t, n, 0, 9, 5, 30)
	n.Start()
	n.Engine.Run(500_000)
	if s := n.StaleArrivals(); s != 0 {
		t.Errorf("StaleArrivals = %d, want 0", s)
	}
}

// disablePools turns off packet and event-record recycling for the
// network and its engines.  Pooled and pool-disabled runs are
// bit-identical; the determinism property tests compare the two.  Call
// before Start.
func (n *Network) disablePools() {
	n.poolDisabled = true
	for _, sh := range n.shards {
		sh.eng.PoolDisabled = true
	}
}
