package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/admission"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// deadlineSums folds flows' delay distributions the way a deadline
// check reads them: QoS packets delivered in the window, the packets
// among them that missed their deadline (derived from
// PercentMeetingDeadline) and the worst delay-to-deadline ratio.
func deadlineSums(flows []*Flow) (qos, missed int64, worst float64) {
	for _, f := range flows {
		total := f.Delay.Total()
		if !f.QoS || total == 0 {
			continue
		}
		met := int64(math.Round(f.Delay.PercentMeetingDeadline() / 100 * float64(total)))
		qos += total
		missed += total - met
		worst = math.Max(worst, f.Delay.MaxRatio())
	}
	return qos, missed, worst
}

// TestFinishedFlowsLeave releases connections whose flows never sent
// and connections whose flows delivered measured packets, on one
// engine and on two shards.  Flows() must then hold exactly the live
// flows and the finished flows with data, in attach order; the
// deadline sums over it must match those over every flow the test
// attached; and StartMeasurement, which empties every finished flow's
// statistics, must drop them all.
func TestFinishedFlowsLeave(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			n := buildSharded(t, topology.Spec{Class: topology.FatTree, K: 4}, 31, shards)
			rng := rand.New(rand.NewSource(31))
			hosts := n.Topo.NumHosts()
			var all []*Flow
			var conns []*admission.Conn
			for i := 0; i < 3*hosts; i++ {
				src := rng.Intn(hosts)
				dst := (src + 1 + rng.Intn(hosts-1)) % hosts
				conn, err := n.Adm.Admit(traffic.Request{Src: src, Dst: dst, Level: sl.DefaultLevels[3+i%4], Mbps: 4})
				if err != nil {
					continue
				}
				all = append(all, n.AddConnection(conn))
				conns = append(conns, conn)
			}
			if len(all) < 12 {
				t.Fatalf("only %d connections admitted", len(all))
			}

			// Every third flow stays silent; the rest send, measured.
			silent := func(i int) bool { return i%3 == 0 }
			n.StartMeasurement()
			for i, f := range all {
				if !silent(i) {
					n.StartFlow(f)
				}
			}
			n.Run(n.Now() + 40*all[1].IAT)

			// Release every silent flow and every other sending one.
			released := map[*Flow]bool{}
			done := 0
			for i, f := range all {
				if silent(i) || i%2 == 0 {
					released[f] = true
					n.ReleaseConnection(conns[i], f, func() { done++ })
				}
			}
			n.Run(n.Now() + 40*all[1].IAT)
			if done != len(released) {
				t.Fatalf("%d of %d releases completed", done, len(released))
			}

			var want []*Flow
			for i, f := range all {
				switch {
				case !released[f]:
					want = append(want, f)
				case silent(i):
					if f.measured() {
						t.Fatalf("silent flow %d holds statistics", f.ID)
					}
				case f.Delivered == 0:
					t.Fatalf("released sending flow %d delivered nothing in the window", f.ID)
				default:
					want = append(want, f)
				}
			}
			got := n.Flows()
			if !slices.Equal(got, want) {
				t.Fatalf("Flows() = %d flows, want the %d live or measured ones of %d in attach order", len(got), len(want), len(all))
			}
			for i, f := range got {
				if !f.finished() && int(f.slot) != i {
					t.Errorf("live flow %d sits at %d, its slot says %d", f.ID, i, f.slot)
				}
			}
			q, m, w := deadlineSums(all)
			gq, gm, gw := deadlineSums(got)
			if q == 0 || gq != q || gm != m || gw != w {
				t.Errorf("deadline sums over Flows() %d/%d/%v, over every attached flow %d/%d/%v", gq, gm, gw, q, m, w)
			}

			n.StartMeasurement()
			var live []*Flow
			for _, f := range all {
				if !released[f] {
					live = append(live, f)
				}
			}
			if got := n.Flows(); !slices.Equal(got, live) {
				t.Errorf("after StartMeasurement Flows() = %d flows, want the %d live ones", len(got), len(live))
			}
			n.StopGeneration()
			n.Run(n.Now() + 1<<24)
			if err := n.CheckConservation(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestRetiredVBRFlowTakesItsPacer: a paced flow's pacer goes when its
// release completes, and a VBR flow attached after retirements gets an
// ID no earlier flow had and a pacer of its own.
func TestRetiredVBRFlowTakesItsPacer(t *testing.T) {
	n := buildNet(t, 2, 256, 27)
	hosts := n.Topo.NumHosts()
	var flows []*Flow
	var conns []*admission.Conn
	for h := 0; h < hosts; h++ {
		conn, err := n.Adm.Admit(traffic.Request{Src: h, Dst: hosts - 1 - h, Level: sl.DefaultLevels[5], Mbps: 16})
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, n.AddVBRConnection(conn, 4, 8))
		conns = append(conns, conn)
	}
	// The first half sends, the second half is released silent.
	for _, f := range flows[:hosts/2] {
		n.StartFlow(f)
	}
	n.Run(10 * flows[0].IAT)
	for i := hosts / 2; i < hosts; i++ {
		n.ReleaseConnection(conns[i], flows[i], nil)
	}
	n.Run(n.Now() + flows[0].IAT)
	if got := len(n.Flows()); got != hosts/2 {
		t.Fatalf("%d flows attached after the releases, want %d", got, hosts/2)
	}

	conn, err := n.Adm.Admit(traffic.Request{Src: 0, Dst: hosts - 1, Level: sl.DefaultLevels[5], Mbps: 16})
	if err != nil {
		t.Fatal(err)
	}
	late := n.AddVBRConnection(conn, 4, 8)
	for _, f := range flows {
		if f.ID == late.ID {
			t.Fatalf("late flow reuses ID %d", late.ID)
		}
	}
	p := n.pacers[late.ID]
	if p == nil {
		t.Fatal("late VBR flow has no pacer")
	}
	paced := 0
	for _, f := range n.Flows() {
		if f.paced && !f.finished() {
			paced++
			if f != late && n.pacers[f.ID] == p {
				t.Errorf("flow %d shares the late flow's pacer", f.ID)
			}
		}
	}
	if len(n.pacers) != paced {
		t.Errorf("%d pacers for %d live paced flows", len(n.pacers), paced)
	}
	n.StartMeasurement()
	n.StartFlow(late)
	n.Run(n.Now() + 20*late.IAT)
	if late.Delivered == 0 || p.k == 0 {
		t.Errorf("late VBR flow delivered %d packets, its pacer stepped %d times", late.Delivered, p.k)
	}
}

// TestWarmupDropsLeaveAtRelease: flows whose source queues dropped
// packets during the warm-up, and whose releases complete before the
// measurement window opens, carry no statistic, so they leave Flows()
// at their release.  Two connections from one host each transmit
// 1 800 Mbps over its 2 000 Mbps link through a one-packet send queue.
func TestWarmupDropsLeaveAtRelease(t *testing.T) {
	cfg := DefaultConfig(2, 256, 29)
	cfg.HostQueueCap = 1
	n, err := newIrregular(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var flows []*Flow
	var conns []*admission.Conn
	for _, level := range []int{5, 9} {
		conn, err := n.Adm.Admit(traffic.Request{Src: 0, Dst: 7, Level: sl.DefaultLevels[level], Mbps: 20})
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, n.AddMisbehavingConnection(conn, 1800))
		conns = append(conns, conn)
	}
	n.Start()
	n.Run(200 * flows[0].IAT)
	if _, _, dropped := n.Totals(); dropped == 0 {
		t.Fatal("no packet dropped behind the busy link")
	}
	done := 0
	for i, f := range flows {
		n.ReleaseConnection(conns[i], f, func() { done++ })
	}
	n.Run(n.Now() + 1<<22)
	if done != len(flows) {
		t.Fatalf("%d of %d releases completed", done, len(flows))
	}
	if got := n.Flows(); len(got) != 0 {
		t.Errorf("Flows() holds %d flows after every release completed before the window, want none", len(got))
	}
	n.StartMeasurement()
	if err := n.CheckConservation(); err != nil {
		t.Error(err)
	}
}
