package fabric

import (
	"math/rand"
	"testing"

	"repro/internal/arbtable"
	"repro/internal/sl"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// buildVOQ creates a network over a generated topology with the given
// input-queued switch model.
func buildVOQ(t *testing.T, spec topology.Spec, model SwitchModel, seed int64) *Network {
	t.Helper()
	return buildVOQSharded(t, spec, model, seed, 1)
}

// TestVOQForwardsGrantedByMatching is the oracle-driven crossbar
// cross-check: on both input-queued models, every data-plane forward
// at a VOQ switch must be granted by that switch's current crossbar
// matching (OnMatch ∘ OnVOQDequeue ∘ OnForward agree), follow the
// routing tables, and after a full drain the per-VL credits must be
// conserved across the crossbar — every input buffer occupancy back
// to zero and every packet accounted for.
func TestVOQForwardsGrantedByMatching(t *testing.T) {
	specs := []topology.Spec{
		{Class: topology.Irregular, Switches: 6, Seed: 11},
		{Class: topology.FatTree, K: 4},
		{Class: topology.Dragonfly, A: 2, P: 2, H: 1},
	}
	for _, model := range []SwitchModel{ModelVOQISLIP, ModelVOQMWM} {
		for _, spec := range specs {
			model, spec := model, spec
			t.Run(model.String()+"/"+spec.Label(), func(t *testing.T) {
				n := buildVOQ(t, spec, model, 9)
				rng := rand.New(rand.NewSource(31))
				hosts := n.Topo.NumHosts()

				// QoS flows plus enough best-effort load that the VOQs
				// actually backlog and the matchings carry contention.
				for i := 0; i < 3*hosts; i++ {
					src, dst := rng.Intn(hosts), rng.Intn(hosts)
					if src == dst {
						continue
					}
					if i%2 == 0 {
						n.AddBestEffort(traffic.BestEffort{
							Src: src, Dst: dst, SL: sl.BESL, Mbps: 40,
						})
						continue
					}
					levels := []int{3, 4, 6, 7}
					conn, err := n.Adm.Admit(traffic.Request{
						Src: src, Dst: dst,
						Level: sl.DefaultLevels[levels[i%len(levels)]], Mbps: 2,
					})
					if err != nil {
						continue
					}
					n.AddConnection(conn)
				}
				// One management flow so VL 15 preemption shares the
				// crossbar with the matched data transfers.
				n.AddManagement(0, hosts-1, 1)

				// The current matching per switch, refreshed by OnMatch.
				type matching struct {
					m     [topology.SwitchPorts]int8
					valid bool
				}
				cur := make([]matching, n.Topo.NumSwitches)
				matches, dequeues, forwards := 0, 0, 0
				n.OnMatch = func(sw int, m *[topology.SwitchPorts]int8, size int) {
					var inSeen [topology.SwitchPorts]bool
					got := 0
					for j := range m {
						i := m[j]
						if i < 0 {
							continue
						}
						got++
						if inSeen[i] {
							t.Fatalf("switch %d: input %d matched to two outputs", sw, i)
						}
						inSeen[i] = true
					}
					if got != size {
						t.Fatalf("switch %d: matching size %d, reported %d", sw, got, size)
					}
					cur[sw] = matching{m: *m, valid: true}
					matches++
				}
				lastSw, lastOut := -1, -1
				n.OnVOQDequeue = func(sw, in, out, vl int) {
					if !cur[sw].valid {
						t.Fatalf("switch %d dequeues input %d -> output %d before any matching", sw, in, out)
					}
					if cur[sw].m[out] != int8(in) {
						t.Fatalf("switch %d forwards input %d -> output %d, matching granted input %d",
							sw, in, out, cur[sw].m[out])
					}
					if vl == arbtable.MgmtVL {
						t.Fatalf("switch %d: management VL dequeued through the data matching", sw)
					}
					lastSw, lastOut = sw, out
					dequeues++
				}
				n.OnForward = func(pkt *Packet, sw, port int) {
					if sw != lastSw || port != lastOut {
						t.Fatalf("forward at switch %d port %d not preceded by its VOQ dequeue (last %d/%d)",
							sw, port, lastSw, lastOut)
					}
					if want := n.Routes.NextPort(sw, pkt.Dst); port != want {
						t.Fatalf("switch %d forwards dst %d out port %d, routes say %d",
							sw, pkt.Dst, port, want)
					}
					if want := n.Routes.HopVL(sw, pkt.Dst, pkt.Base); pkt.VL != want {
						t.Fatalf("switch %d dst %d: wire VL %d, routes say %d", sw, pkt.Dst, pkt.VL, want)
					}
					forwards++
				}

				n.Start()
				n.Engine.Run(400_000)
				if err := n.CheckBuffers(); err != nil {
					t.Fatal(err)
				}
				n.StopGeneration()
				n.Engine.Run(1 << 40) // drain
				if err := n.CheckBuffers(); err != nil {
					t.Fatal(err)
				}
				if err := n.CheckConservation(); err != nil {
					t.Fatal(err)
				}
				// Credit conservation across the crossbar: with the
				// fabric drained, every reserved byte must have been
				// returned on the VL it was consumed on.
				for _, s := range n.switches {
					for p := range s.in {
						for vl := 0; vl < arbtable.NumVLs; vl++ {
							if occ := s.in[p].occ[vl]; occ != 0 {
								t.Errorf("switch %d port %d VL %d: %d bytes of credit leaked",
									s.id, p, vl, occ)
							}
						}
					}
				}
				if n.QueuedPackets() != 0 {
					t.Errorf("%d packets still queued after drain", n.QueuedPackets())
				}
				if n.StaleArrivals() != 0 {
					t.Errorf("%d stale arrivals", n.StaleArrivals())
				}
				if matches == 0 || dequeues == 0 || forwards == 0 {
					t.Fatalf("cross-check saw matches=%d dequeues=%d forwards=%d, want all > 0",
						matches, dequeues, forwards)
				}
				if forwards != dequeues {
					t.Errorf("forwards %d != VOQ dequeues %d", forwards, dequeues)
				}
			})
		}
	}
}

// TestVOQDeliversAndMeters: the input-queued models actually deliver
// QoS traffic end to end, and the VOQ metrics populate (scheduling
// passes counted, matching-size histogram non-empty) while the WRR
// model leaves them zero — the omitempty guard the goldens rely on.
func TestVOQDeliversAndMeters(t *testing.T) {
	for _, model := range []SwitchModel{ModelWRR, ModelVOQISLIP, ModelVOQMWM} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			topo, err := topology.Generate(4, 7)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(4, 256, 7)
			cfg.SwitchModel = model
			n, err := NewWithTopology(cfg, topo)
			if err != nil {
				t.Fatal(err)
			}
			m := n.EnableMetrics()
			f := admitFlow(t, n, 0, n.Topo.NumHosts()-1, 9, 32)
			n.StartMeasurement()
			n.Start()
			n.Engine.Run(200 * f.IAT)
			if f.Delivered.Packets == 0 {
				t.Fatal("no packets delivered")
			}
			snap := m.Snapshot()
			if model == ModelWRR {
				if snap.VOQ != nil {
					t.Fatalf("WRR model populated VOQ metrics: %+v", snap.VOQ)
				}
				return
			}
			if snap.VOQ == nil {
				t.Fatal("VOQ metrics missing")
			}
			if snap.VOQ.SchedPasses == 0 || snap.VOQ.Matched == 0 {
				t.Fatalf("VOQ counters empty: %+v", snap.VOQ)
			}
			if snap.VOQ.MatchSize.N == 0 {
				t.Fatal("matching-size histogram empty")
			}
		})
	}
}
