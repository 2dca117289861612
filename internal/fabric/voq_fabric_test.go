package fabric

import (
	"fmt"
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
// matching (onMatch ∘ onDequeue ∘ OnForward agree), follow the
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
				n.addManagement(0, hosts-1, 1)

				// The current matching per switch, refreshed by onMatch.
				type matching struct {
					m     [topology.SwitchPorts]int8
					valid bool
				}
				cur := make([]matching, n.Topo.NumSwitches)
				matches, dequeues, forwards := 0, 0, 0
				n.onMatch = func(sw int, m *[topology.SwitchPorts]int8, size int) {
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
				n.onDequeue = func(sw, in, out, vl int) {
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
			if f.Delivered == 0 {
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

// voqDeliveryDigest runs a loaded input-queued fabric (loadDifferential:
// credit-blocked best effort plus VL 15) for 120 000 byte-times and
// returns its deliveryDigest.
func voqDeliveryDigest(t *testing.T, spec topology.Spec, model SwitchModel, seed int64, shards int) uint64 {
	t.Helper()
	n := buildVOQSharded(t, spec, model, seed, shards)
	if n.Parallel() != (shards > 1) {
		t.Fatalf("Parallel() = %v at %d shards", n.Parallel(), shards)
	}
	loadDifferential(t, n, seed+22)
	return deliveryDigest(t, n, 120_000)
}

// deliveryDigest starts a loaded fabric, runs it to until and returns an
// FNV-1a digest over (flow, packet tag, injection byte-time, delivery
// byte-time) of every delivery.  Deliveries are digested per destination
// host, in delivery order — a host belongs to one shard, so the hook is
// safe on shard goroutines — and the host digests folded in host order.
func deliveryDigest(t *testing.T, n *Network, until int64) uint64 {
	t.Helper()
	const offset, prime = 14695981039346656037, 1099511628211
	fold := func(d uint64, x int64) uint64 {
		for b := 0; b < 64; b += 8 {
			d = (d ^ uint64(x>>b)&0xff) * prime
		}
		return d
	}
	perHost := make([]uint64, n.Topo.NumHosts())
	for h := range perHost {
		perHost[h] = offset
	}
	n.OnDeliver = func(pkt *Packet) {
		d := perHost[pkt.Dst]
		now := n.shardForHost(pkt.Dst).eng.Now()
		for _, x := range [...]int64{int64(pkt.Flow.ID), pkt.Tag, pkt.Injected, now} {
			d = fold(d, x)
		}
		perHost[pkt.Dst] = d
	}
	n.Start()
	n.Run(until)
	if err := n.CheckBuffers(); err != nil {
		t.Fatal(err)
	}
	if _, delivered, _ := n.Totals(); delivered < 1000 {
		t.Fatalf("only %d deliveries", delivered)
	}
	digest := uint64(offset)
	for _, d := range perHost {
		digest = fold(digest, int64(d))
	}
	return digest
}

// TestVOQDeliveryDigest pins what the input-queued fabric delivers and
// when, on one engine, for every routing class under both schedulers.
// The constants were recorded before the scheduling pass started caching
// its request columns and the kick stopped posting passes that cannot
// match; any change to a match, a forward or a timestamp moves them.
//
// A two-shard parallel run is held to repeatability only: its barriers
// sit where Coordinator.run finds the earliest pending work, deferred
// work posted at a barrier included, so the number of events — not only
// what they do — places its windows, and credit crosses shards at
// barriers.
func TestVOQDeliveryDigest(t *testing.T) {
	specs := []struct {
		name string
		spec topology.Spec
	}{
		{"irregular-8", topology.Spec{Class: topology.Irregular, Switches: 8, Seed: 11}},
		{"fattree-k4", topology.Spec{Class: topology.FatTree, K: 4}},
		{"dragonfly-2-2-1", topology.Spec{Class: topology.Dragonfly, A: 2, P: 2, H: 1}},
	}
	// In the order of the loops below: model, topology, seed.
	pinned := []uint64{
		0x7af8ce9cb5246402, 0x4c198f015764693c, 0x01f677f2f150e4dd, 0xd39cec589aa3ff81,
		0x2cb37d1ecf0fc1f8, 0x965cc9bee5c05d96, 0x1d8f67bebd1ffcad, 0x538ab9c50cc8f6cf,
		0xf52c06fde8332379, 0xf1c91ecec71c00eb, 0x1e20732a72ebe862, 0x7a4f3ba476c88ed9,
	}
	for _, model := range []SwitchModel{ModelVOQISLIP, ModelVOQMWM} {
		for _, tc := range specs {
			for _, seed := range []int64{9, 23} {
				model, tc, seed, want := model, tc, seed, pinned[0]
				pinned = pinned[1:]
				t.Run(fmt.Sprintf("%s/%s/seed%d", model, tc.name, seed), func(t *testing.T) {
					if got := voqDeliveryDigest(t, tc.spec, model, seed, 1); got != want {
						t.Errorf("digest %#016x, pinned %#016x", got, want)
					}
				})
			}
		}
	}
	t.Run("two-shards-repeat", func(t *testing.T) {
		a := voqDeliveryDigest(t, specs[1].spec, ModelVOQISLIP, 9, 2)
		if b := voqDeliveryDigest(t, specs[1].spec, ModelVOQISLIP, 9, 2); a != b {
			t.Errorf("two runs of one two-shard configuration digest %#016x and %#016x", a, b)
		}
	})
}
