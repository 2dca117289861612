package core

import (
	"math/rand"
	"testing"

	"repro/internal/arbtable"
)

// TestStagingPoolShared drives the ports of one slab, which share one
// staging free list, through random interleavings of reservations,
// BeginProgram, in-order and shuffled deliveries, duplicates, torn
// aborts (future versions, wrong totals, altered duplicates, blocks
// with no transaction open) and CancelProgram, with records poisoned
// as they are returned.  After every step each port passes
// CheckInvariants, no record backs two open transactions or sits on
// the free list while it backs one, and the pool holds exactly as many
// records as transactions were ever open at once.
func TestStagingPoolShared(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ports := NewPortTables(5, arbtable.UnlimitedHigh, nil)
		pool := ports[0].pool
		pool.poison = true
		held := make([][]Reservation, len(ports))
		open := make([]Delta, len(ports))
		peak, cancels := 0, 0
		for step := 0; step < 3000; step++ {
			i := rng.Intn(len(ports))
			p := ports[i]
			switch op := rng.Intn(20); {
			case op < 6:
				if len(held[i]) > 0 && rng.Intn(3) == 0 {
					k := rng.Intn(len(held[i]))
					if err := p.Release(held[i][k]); err != nil {
						t.Fatalf("seed %d step %d: release: %v", seed, step, err)
					}
					held[i] = append(held[i][:k], held[i][k+1:]...)
				} else if r, err := p.Reserve(uint8(rng.Intn(4)), 2<<rng.Intn(6), 1+rng.Intn(60)); err == nil {
					held[i] = append(held[i], r)
				}
			case op < 9:
				busy := p.Programming()
				d, err := p.BeginProgram()
				if busy && err != ErrProgramInFlight || !busy && err != nil {
					t.Fatalf("seed %d step %d: BeginProgram on a port programming %v: %v", seed, step, busy, err)
				}
				if err == nil && len(d.Blocks()) > 0 {
					open[i] = d
				}
			case op < 18:
				// A block of the open transaction, in any order and
				// possibly again; now and then a straggler of the last
				// one to a port with none open.
				d := open[i]
				if len(d.Blocks()) == 0 || !p.Programming() && rng.Intn(4) != 0 {
					continue
				}
				b := d.Blocks()[rng.Intn(len(d.Blocks()))]
				p.DeliverBlock(d.Version, b.Index, len(d.Blocks()), b.Entries)
			case op < 19:
				d := open[i]
				b := BlockDelta{Index: rng.Intn(NumHighBlocks)}
				if len(d.Blocks()) > 0 {
					b = d.Blocks()[rng.Intn(len(d.Blocks()))]
				}
				switch rng.Intn(3) {
				case 0:
					p.DeliverBlock(d.Version+1, b.Index, len(d.Blocks()), b.Entries)
				case 1:
					p.DeliverBlock(d.Version, b.Index, len(d.Blocks())+1, b.Entries)
				default:
					b.Entries[rng.Intn(BlockEntries)].Weight++
					p.DeliverBlock(d.Version, b.Index, len(d.Blocks()), b.Entries)
				}
			default:
				v := open[i].Version
				if rng.Intn(4) == 0 {
					v++ // a successor the coordinator never opened
				}
				if p.CancelProgram(v) {
					cancels++
				}
			}
			inUse, records := checkStaging(t, seed, step, ports, pool)
			peak = max(peak, inUse)
			if records != peak {
				t.Fatalf("seed %d step %d: the pool holds %d records, at most %d transactions were ever open at once", seed, step, records, peak)
			}
		}
		var st ReconfigStats
		for _, p := range ports {
			st.Add(p.Stats())
		}
		if peak < 2 || st.Swaps == 0 || st.TornAborts == 0 || cancels == 0 {
			t.Fatalf("seed %d: %d transactions open at most, %d swaps, %d torn aborts, %d cancels; want every path exercised",
				seed, peak, st.Swaps, st.TornAborts, cancels)
		}
	}
}

// checkStaging audits every port of one slab and its shared pool, and
// returns the number of open transactions and of records, open or free.
func checkStaging(t *testing.T, seed int64, step int, ports []*PortTable, pool *stagingPool) (open, records int) {
	t.Helper()
	owner := make(map[*staging]int)
	for i, p := range ports {
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("seed %d step %d: port %d: %v", seed, step, i, err)
		}
		if p.pool != pool {
			t.Fatalf("seed %d step %d: port %d draws from another pool", seed, step, i)
		}
		if p.txn == nil {
			continue
		}
		if j, dup := owner[p.txn]; dup {
			t.Fatalf("seed %d step %d: ports %d and %d share one staging record", seed, step, j, i)
		}
		owner[p.txn] = i
	}
	free := 0
	for r := pool.free; r != nil; r = r.next {
		if i, used := owner[r]; used {
			t.Fatalf("seed %d step %d: port %d's open staging is on the free list", seed, step, i)
		}
		if free++; free > len(ports) {
			t.Fatalf("seed %d step %d: free list longer than the ports that could have opened transactions", seed, step)
		}
		if r.ver != ^uint64(0) {
			t.Fatalf("seed %d step %d: a free record was written after it was returned", seed, step)
		}
	}
	return len(owner), len(owner) + free
}
