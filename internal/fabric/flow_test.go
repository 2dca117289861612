package fabric

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sl"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestNewFlowRefusesBadRate: a rate that is not finite and positive
// has no interarrival time, so attaching such a flow panics at once,
// naming the endpoints and the rate, instead of at its first
// generation ("event scheduled in the past") or never leaving it.
func TestNewFlowRefusesBadRate(t *testing.T) {
	for _, mbps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		n := buildNet(t, 2, 256, 5)
		conn, err := n.Adm.Admit(traffic.Request{Src: 0, Dst: 7, Level: sl.DefaultLevels[3], Mbps: 2})
		if err != nil {
			t.Fatal(err)
		}
		for name, add := range map[string]func(){
			"AddBestEffort": func() {
				n.AddBestEffort(traffic.BestEffort{Src: 1, Dst: 6, SL: sl.BESL, Mbps: mbps})
			},
			"AddMisbehavingConnection": func() { n.AddMisbehavingConnection(conn, mbps) },
		} {
			t.Run(fmt.Sprintf("%s/%v", name, mbps), func(t *testing.T) {
				msg := panicMessage(add)
				want := fmt.Sprintf("rate %v Mbps", mbps)
				if !strings.Contains(msg, want) || !strings.Contains(msg, " -> ") {
					t.Errorf("panic %q, want one naming the endpoints and %q", msg, want)
				}
			})
		}
		if len(n.Flows()) != 0 {
			t.Errorf("rate %v: %d flows attached, want none", mbps, len(n.Flows()))
		}
	}
}

// TestVBRRefusesNonFinitePeakFactor: a NaN or +Inf peak factor passes
// the "<= 1 means CBR" test but has no peak gap (it truncates to a
// negative or zero byte time), so AddVBRConnection panics, naming the
// endpoints and the factor, before anything is attached.
func TestVBRRefusesNonFinitePeakFactor(t *testing.T) {
	for _, c := range []struct {
		name       string
		peakFactor float64
	}{
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := buildNet(t, 2, 256, 5)
			conn, err := n.Adm.Admit(traffic.Request{Src: 0, Dst: 7, Level: sl.DefaultLevels[3], Mbps: 2})
			if err != nil {
				t.Fatal(err)
			}
			msg := panicMessage(func() { n.AddVBRConnection(conn, c.peakFactor, 8) })
			want := fmt.Sprintf("flow 0 -> 7: peak factor %v", c.peakFactor)
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q, want one containing %q", msg, want)
			}
			if len(n.Flows()) != 0 || len(n.pacers) != 0 {
				t.Errorf("%d flows and %d pacers attached, want none", len(n.Flows()), len(n.pacers))
			}
		})
	}
}

// panicMessage runs fn and returns what it panicked with, "" if it
// returned.
func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestRestartedFlowJitterExcludesStop: the first delivery after a flow
// is stopped and started again opens a new interarrival sequence, so
// an uncontended flow's jitter stays central however long it was
// stopped.  It used to count the whole stop as one interarrival, in
// the >= +IAT bucket.
func TestRestartedFlowJitterExcludesStop(t *testing.T) {
	n := buildWRR(t, topology.Spec{Class: topology.FatTree, K: 4}, 13, 1, nil)
	f := admitFlow(t, n, 0, n.Topo.NumHosts()-1, 9, 64)
	n.Start()
	n.Run(5 * f.IAT)
	n.StartMeasurement()
	n.Run(n.Now() + 40*f.IAT)
	n.StopFlow(f)
	n.Run(n.Now() + 1_000_000)
	before := f.Delivered
	n.StartFlow(f)
	n.Run(n.Now() + 40*f.IAT)
	if f.Delivered-before < 30 {
		t.Fatalf("%d packets after the restart", f.Delivered-before)
	}
	j := n.Jitter(f.SL)
	if late := j.Percent(stats.JitterBuckets - 1); late != 0 {
		t.Errorf("%.1f%% of %d samples at >= +IAT: the stop counted as jitter", late, j.Total())
	}
	if central := j.CentralPercent(); central != 100 {
		t.Errorf("central jitter %.1f%% of %d samples, want 100%% uncontended", central, j.Total())
	}
}

// TestJitterAggregateMatchesReplay: the per-SL histograms the shards
// keep equal, on every service level, the merge of per-flow histograms
// a replay rebuilds from every delivery (OnDeliver) — with several
// flows per SL under contention, a measurement window opened mid-run
// and a flow stopped and restarted inside it, under both the WRR and
// the input-queued iSLIP switch.
func TestJitterAggregateMatchesReplay(t *testing.T) {
	for _, model := range []SwitchModel{ModelWRR, ModelVOQISLIP} {
		t.Run(model.String(), func(t *testing.T) {
			n := buildVOQ(t, topology.Spec{Class: topology.FatTree, K: 4}, model, 17)
			hosts := n.Topo.NumHosts()
			levels := []struct {
				level int
				mbps  float64
			}{{5, 48}, {8, 16}, {9, 48}}
			admitted := 0
			for i := 0; i < 3*hosts; i++ {
				src, dst := i%hosts, (i*5+3)%hosts
				if src == dst {
					continue
				}
				lv := levels[i%len(levels)]
				conn, err := n.Adm.Admit(traffic.Request{
					Src: src, Dst: dst, Level: sl.DefaultLevels[lv.level], Mbps: lv.mbps,
				})
				if err == nil {
					n.AddConnection(conn)
					admitted++
				}
			}
			if admitted < 4*len(levels) {
				t.Fatalf("only %d connections admitted", admitted)
			}
			for _, be := range traffic.BestEffortBackground(hosts, 900, 17) {
				n.AddBestEffort(be)
			}

			// The replay: one histogram per flow, the interarrival
			// sequence restarting at StartMeasurement and at StartFlow.
			type replay struct {
				last int64
				hist stats.JitterHist
			}
			flows := n.Flows()
			per := make([]replay, len(flows))
			startMeasurement := func() {
				for i := range per {
					per[i] = replay{last: -1}
				}
				n.StartMeasurement()
			}
			n.OnDeliver = func(pkt *Packet) {
				f, now := pkt.Flow, n.Now()
				if r := &per[f.ID]; f.IAT > 0 {
					if r.last >= 0 {
						r.hist.Add(float64(now-r.last-f.IAT) / float64(f.IAT))
					}
					r.last = now
				}
			}

			// The first window spans the warm-up; the second, opened
			// mid-run, must discard it.
			stopped := flows[0]
			startMeasurement()
			n.Start()
			n.Run(50_000)
			startMeasurement()
			n.Run(150_000)
			n.StopFlow(stopped)
			n.Run(250_000)
			n.StartFlow(stopped)
			per[stopped.ID].last = -1
			before := stopped.Delivered
			n.Run(400_000)
			if stopped.Delivered == before {
				t.Fatal("the restarted flow delivered nothing")
			}

			var want [numSLs]stats.JitterHist
			for _, f := range flows {
				want[f.SL].Merge(&per[f.ID].hist)
			}
			contended := false
			for slv := range want {
				got := n.Jitter(uint8(slv))
				if got != want[slv] {
					t.Errorf("SL %d: aggregate %+v, replay %+v", slv, got, want[slv])
				}
				contended = contended || got.Total() > 0 && got.CentralPercent() < 100
			}
			if want[stopped.SL].Total() == 0 {
				t.Errorf("SL %d recorded no jitter", stopped.SL)
			}
			if !contended {
				t.Error("every sample central: the load does not exercise the histogram")
			}
		})
	}
}
