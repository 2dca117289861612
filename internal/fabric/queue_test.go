package fabric

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPacketQueueDifferential drives several intrusive queues that
// share one packet pool against slice FIFOs with random scripts: pushes
// from the pool, pops back into it, moves from one queue to another (a
// forward), unlinks of the first packet bound for an output port (an
// input-queued switch serving a VOQ head from the middle of an input
// buffer), and in-place filter passes that pop every packet and push
// the survivors back, as failover's sweep does.  After every operation
// each queue must hold the reference's packets in the reference's order
// with the reference's length, be a well-formed chain (wireBytes), and
// agree with the reference on the first packet and the packet count
// bound for every output.
//
// Packets leave the pool with a stale link and a fresh output port,
// because push may not rely on how a packet left its previous queue;
// and every popped or unlinked packet must come out with no link,
// because a packet outside every queue holds none.
func TestPacketQueueDifferential(t *testing.T) {
	const queues, outs, poolSize, steps = 4, 4, 40, 20_000
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := make([]*Packet, poolSize)
		for k := range pool {
			pool[k] = &Packet{Wire: 100 + k}
		}
		free := append([]*Packet(nil), pool...)
		take := func() *Packet {
			k := rng.Intn(len(free))
			p := free[k]
			free[k] = free[len(free)-1]
			free = free[:len(free)-1]
			if rng.Intn(2) == 0 {
				p.next = pool[rng.Intn(poolSize)] // stale link
			}
			p.out = int8(rng.Intn(outs))
			return p
		}
		var q [queues]pktQueue
		var ref [queues][]*Packet
		pop := func(i int) *Packet {
			p := q[i].pop()
			if p != ref[i][0] {
				t.Fatalf("seed %d: queue %d pops packet %d, reference %d", seed, i, p.Wire, ref[i][0].Wire)
			}
			if p.next != nil {
				t.Fatalf("seed %d: packet %d popped from queue %d still links to packet %d", seed, p.Wire, i, p.next.Wire)
			}
			ref[i] = ref[i][1:]
			return p
		}
		unlink := func(i int, out int8) *Packet {
			k := slices.IndexFunc(ref[i], func(r *Packet) bool { return r.out == out })
			p := q[i].unlinkFirst(out)
			if p != ref[i][k] {
				t.Fatalf("seed %d: queue %d unlinks packet %d for output %d, reference %d", seed, i, p.Wire, out, ref[i][k].Wire)
			}
			if p.next != nil {
				t.Fatalf("seed %d: packet %d unlinked from queue %d still links to packet %d", seed, p.Wire, i, p.next.Wire)
			}
			ref[i] = slices.Delete(ref[i], k, k+1)
			return p
		}
		push := func(i int, p *Packet) {
			q[i].push(p)
			ref[i] = append(ref[i], p)
		}

		ops := map[string]int{}
		for step := 0; step < steps; step++ {
			i := rng.Intn(queues)
			switch op := rng.Intn(12); {
			case op < 4 && len(free) > 0:
				ops["push"]++
				push(i, take())
			case op < 6 && q[i].len() > 0:
				ops["pop"]++
				free = append(free, pop(i))
			case op < 8 && q[i].len() > 0:
				ops["move"]++
				push(rng.Intn(queues), pop(i))
			case op < 11 && q[i].len() > 0:
				// Any packet's output names one the queue holds; half
				// the unlinked packets return to the pool, half move.
				ops["unlink"]++
				p := unlink(i, ref[i][rng.Intn(len(ref[i]))].out)
				if rng.Intn(2) == 0 {
					free = append(free, p)
				} else {
					push(rng.Intn(queues), p)
				}
			case op == 11:
				ops["filter"]++
				drop := rng.Intn(3) // 0 keeps everything
				for k, cnt := 0, q[i].len(); k < cnt; k++ {
					p := pop(i)
					if drop > 0 && p.Wire%drop == 0 {
						free = append(free, p)
						continue
					}
					push(i, p)
				}
			}
			queued := 0
			for i := range q {
				if got, want := q[i].len(), len(ref[i]); got != want {
					t.Fatalf("seed %d step %d: queue %d holds %d packets, reference %d", seed, step, i, got, want)
				}
				wire, err := q[i].wireBytes()
				if err != nil {
					t.Fatalf("seed %d step %d: queue %d: %v", seed, step, i, err)
				}
				want := 0
				p := q[i].front()
				for k, r := range ref[i] {
					if p != r {
						t.Fatalf("seed %d step %d: queue %d position %d holds %v, reference packet %d", seed, step, i, k, p, r.Wire)
					}
					want += r.Wire
					p = q[i].after(p)
				}
				if wire != want {
					t.Fatalf("seed %d step %d: queue %d walks to %d wire bytes, reference %d", seed, step, i, wire, want)
				}
				for out := int8(0); out < outs; out++ {
					var first *Packet
					count := 0
					for _, r := range ref[i] {
						if r.out == out {
							if count == 0 {
								first = r
							}
							count++
						}
					}
					if got := q[i].firstFor(out); got != first {
						t.Fatalf("seed %d step %d: queue %d's first packet for output %d is %v, reference %v", seed, step, i, out, got, first)
					}
					if got := q[i].countFor(out); got != count {
						t.Fatalf("seed %d step %d: queue %d holds %d packets for output %d, reference %d", seed, step, i, got, out, count)
					}
				}
				queued += len(ref[i])
			}
			if queued+len(free) != poolSize {
				t.Fatalf("seed %d step %d: %d queued + %d free packets, pool of %d", seed, step, queued, len(free), poolSize)
			}
		}
		for _, op := range []string{"push", "pop", "move", "unlink", "filter"} {
			if ops[op] < steps/20 {
				t.Fatalf("seed %d: only %d %s operations in %d steps: %v", seed, ops[op], op, steps, ops)
			}
		}
	}
}
