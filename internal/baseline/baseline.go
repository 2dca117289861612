// Package baseline implements the schemes the paper improves upon,
// used by the ablation experiments:
//
//   - The Pelissier-style priority split (section 3.1 of the paper):
//     only time-sensitive (DBTS) traffic uses the high-priority table
//     while dedicated-bandwidth (DB) traffic is served from the
//     low-priority table.  Its failure mode — an overshooting DBTS
//     source starves all DB traffic — motivates the paper's proposal
//     to place every guaranteed class in the high-priority table.
//
//   - A naive table-filling policy (natural-order first fit, no
//     defragmentation) against which the bit-reversal algorithm's
//     acceptance ratio is measured.
package baseline

import (
	"fmt"
	"math/rand"

	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/sl"
	"repro/internal/traffic"
)

// LowTables places dedicated-bandwidth reservations into the
// low-priority tables of the ports along a path, the old scheme's
// treatment of DB traffic.  Entries for best-effort VLs already in the
// low tables are preserved; DB VLs get weight-proportional entries
// appended after them.
type LowTables struct {
	routes *routing.Routes
	ports  []*core.PortTable   // host interfaces, indexed by host
	swPort [][]*core.PortTable // switch output tables

	// reserved[pt][vl] is the accumulated DB weight for a VL at port pt.
	reserved map[*core.PortTable]map[uint8]int
	// base[pt] is the port's original (best-effort) low-priority
	// entry list, kept so rebuilds do not clobber it.
	base map[*core.PortTable][]arbtable.Entry

	// Budget bounds high + low reserved weight per port.
	Budget int
}

// NewLowTables returns a DB low-table reservation manager over the
// same port tables the fabric arbiters read.
func NewLowTables(routes *routing.Routes, hostPorts []*core.PortTable, switchPorts [][]*core.PortTable) *LowTables {
	return &LowTables{
		routes: routes, ports: hostPorts, swPort: switchPorts,
		reserved: make(map[*core.PortTable]map[uint8]int),
		base:     make(map[*core.PortTable][]arbtable.Entry),
		Budget:   sl.MaxReservableWeight,
	}
}

// pathTables lists the port tables on a route, host interface first.
func (l *LowTables) pathTables(src, dst int) ([]*core.PortTable, error) {
	switches, err := l.routes.PathSwitches(src, dst)
	if err != nil {
		return nil, err
	}
	tables := []*core.PortTable{l.ports[src]}
	for _, sw := range switches {
		tables = append(tables, l.swPort[sw][l.routes.NextPort(sw, dst)])
	}
	return tables, nil
}

// AdmitDB reserves a DB connection's weight in the low-priority tables
// along its path, as the old scheme would.  The request must belong to
// a DB-class service level.
func (l *LowTables) AdmitDB(req traffic.Request, vl uint8) error {
	if req.Level.Class != sl.DB {
		return fmt.Errorf("baseline: AdmitDB on %v-class request", req.Level.Class)
	}
	weight := sl.WeightForBandwidth(req.Mbps)
	tables, err := l.pathTables(req.Src, req.Dst)
	if err != nil {
		return err
	}
	// Check the combined budget first so no rollback is needed.
	for _, pt := range tables {
		if pt.ReservedWeight()+l.lowWeight(pt)+weight > l.Budget {
			return fmt.Errorf("baseline: over budget")
		}
	}
	for _, pt := range tables {
		l.add(pt, vl, weight)
	}
	return nil
}

// lowWeight returns the accumulated DB weight at a port.
func (l *LowTables) lowWeight(pt *core.PortTable) int {
	sum := 0
	for _, w := range l.reserved[pt] {
		sum += w
	}
	return sum
}

// add accumulates weight for a VL and rebuilds the port's low list.
func (l *LowTables) add(pt *core.PortTable, vl uint8, weight int) {
	if _, ok := l.base[pt]; !ok {
		l.base[pt] = append([]arbtable.Entry(nil), pt.Allocator().Table().Low...)
		l.reserved[pt] = make(map[uint8]int)
	}
	l.reserved[pt][vl] += weight
	l.rebuild(pt)
}

// rebuild rewrites the low table: base best-effort entries followed by
// the DB entries, each VL's weight split into MaxWeight-sized chunks.
// The list is installed through SetLow so both the control-plane view
// and the active table the fabric arbiters read are updated (the low
// table is outside the versioned-delta protocol).
func (l *LowTables) rebuild(pt *core.PortTable) {
	low := append([]arbtable.Entry(nil), l.base[pt]...)
	for vl := uint8(0); vl < arbtable.NumDataVLs; vl++ {
		w, ok := l.reserved[pt][vl]
		if !ok || w == 0 {
			continue
		}
		for w > 0 {
			chunk := w
			if chunk > arbtable.MaxWeight {
				chunk = arbtable.MaxWeight
			}
			low = append(low, arbtable.Entry{VL: vl, Weight: uint8(chunk)})
			w -= chunk
		}
	}
	pt.SetLow(low)
}

// TrialOp is one step of an acceptance trial: either an allocation
// request (distance, weight) or the release of a previously accepted
// request (index into the trial's accept log).
type TrialOp struct {
	Release  int // -1 for an allocation
	Distance int
	Weight   int
}

// TrialResult reports the outcome of replaying a request trace against
// one policy.  The headline metric is ServiceabilitySteps: the paper's
// theorem says the bit-reversal policy keeps the table serviceable —
// able to honor any request that fits in the free slots — after every
// operation, while the naive policy fragments.
type TrialResult struct {
	Accepted int
	Rejected int
	// Steps observed and the subset after which the table could still
	// serve every request with n <= free slots.
	Steps               int
	ServiceabilitySteps int
	// FalseRejects counts allocations that failed despite enough free
	// slots — impossible under the paper's policy.
	FalseRejects int
}

// ServiceabilityRatio is the fraction of steps after which the table
// remained serviceable.
func (r TrialResult) ServiceabilityRatio() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.ServiceabilitySteps) / float64(r.Steps)
}

// RandomTrace builds a random allocation/release trace of the given
// length: ~55 % allocations with distances and weights drawn like the
// evaluation's service levels, the rest releases of random live
// requests.
func RandomTrace(steps int, seed int64) []TrialOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []TrialOp
	issued := 0
	for i := 0; i < steps; i++ {
		if issued == 0 || rng.Intn(100) < 55 {
			d := core.Distances[rng.Intn(len(core.Distances))]
			w := 1 + rng.Intn(700)
			ops = append(ops, TrialOp{Release: -1, Distance: d, Weight: w})
			issued++
		} else {
			ops = append(ops, TrialOp{Release: rng.Intn(issued)})
		}
	}
	return ops
}

// serviceable reports whether the table can currently place a request
// of every power-of-two size up to its free slot count.
func serviceable(a *core.Allocator) bool {
	free := a.FreeSlots()
	for n := 1; n <= free && n <= core.MaxSeqSlots; n *= 2 {
		if !a.CanAllocate(core.TableSize/n, 1) {
			return false
		}
	}
	return true
}

// Replay runs a trace against a fresh allocator with the given policy,
// counting accepted and falsely rejected allocations and how often the
// table stayed serviceable.  Releases index the allocation ops in
// order; releasing a rejected or already-released request is a no-op,
// keeping traces policy independent.
func Replay(ops []TrialOp, policy core.Policy) TrialResult {
	alloc := core.NewAllocatorWithPolicy(arbtable.New(arbtable.UnlimitedHigh), policy)
	var res TrialResult
	type accepted struct {
		id     core.SeqID
		weight int
		live   bool
	}
	var log []accepted
	for _, op := range ops {
		if op.Release >= 0 {
			if op.Release < len(log) && log[op.Release].live {
				a := &log[op.Release]
				if _, err := alloc.RemoveWeight(a.id, a.weight); err == nil {
					a.live = false
				}
			}
		} else {
			_, need, shapeErr := core.Shape(op.Distance, op.Weight)
			s, err := alloc.Allocate(uint8(len(log)%14), op.Distance, op.Weight)
			if err != nil {
				res.Rejected++
				if shapeErr == nil && need <= alloc.FreeSlots() {
					res.FalseRejects++
				}
				log = append(log, accepted{live: false})
			} else {
				res.Accepted++
				log = append(log, accepted{id: s.ID, weight: op.Weight, live: true})
			}
		}
		res.Steps++
		if serviceable(alloc) {
			res.ServiceabilitySteps++
		}
	}
	return res
}

// FillUntilReject feeds a pure allocation stream (no releases) to a
// fresh allocator with the given policy and returns how many requests
// were accepted before the first rejection — a direct measure of how
// long the fill-in discipline keeps every request placeable.
func FillUntilReject(seed int64, policy core.Policy) int {
	rng := rand.New(rand.NewSource(seed))
	alloc := core.NewAllocatorWithPolicy(arbtable.New(arbtable.UnlimitedHigh), policy)
	count := 0
	for {
		d := core.Distances[rng.Intn(len(core.Distances))]
		if _, err := alloc.Allocate(uint8(count%14), d, 1+rng.Intn(700)); err != nil {
			return count
		}
		count++
	}
}
