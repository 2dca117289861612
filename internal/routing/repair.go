// Route repair for degraded topologies.  When links die or a switch
// crashes mid-run, the fabric hands the mutated topology to Repair,
// which rebuilds per-class forwarding tables over the surviving links
// and has the channel-dependency verifier re-prove them acyclic before
// anything is activated:
//
//   - fat-tree and irregular fabrics rebuild up*/down* tables with
//     per-component BFS trees (a degraded fat-tree is just an irregular
//     network with a helpful shape, and up*/down* is the classic
//     fault-tolerant fallback);
//   - dragonflies first retry minimal l-g-l over the surviving links,
//     keeping the two-plane escape scheme; if a failure broke a minimal
//     path that a non-minimal detour could cover, the l-g-l attempt is
//     rejected and the engine falls back to up*/down* over the degraded
//     graph, preserving the fabric's VL plane layout (planes stay
//     claimed, the hop-VL function becomes the identity) so wire VLs,
//     SLtoVL collapsing and buffer sizing all remain valid.
//
// Host pairs whose switches ended up in different components are left
// unroutable (next port -1) and counted — never silently dropped; the
// fabric reports and drains them.
package routing

import (
	"fmt"

	"repro/internal/routing/cdg"
	"repro/internal/topology"
)

// RepairReport describes what a Repair did.
type RepairReport struct {
	// FellBack is true when a dragonfly could not keep minimal l-g-l
	// routing and fell back to up*/down* over the surviving links.
	FellBack bool `json:"fellBack,omitempty"`
	// UnreachablePairs counts ordered host-bearing switch pairs with no
	// surviving route (they are disconnected in the degraded graph).
	UnreachablePairs int `json:"unreachablePairs,omitempty"`
	// Stats is the channel-dependency proof of the repaired tables.
	Stats cdg.Stats `json:"cdg"`
}

// Repair rebuilds deadlock-free forwarding tables for a degraded
// topology (links and switches already removed) and proves them
// acyclic with the CDG verifier before returning.  The returned route
// set leaves truly disconnected pairs unroutable; the report counts
// them.  An error means no safe route set could be built — the caller
// must not activate anything.
func Repair(topo *topology.Topology) (*Routes, RepairReport, error) {
	var rep RepairReport
	if topo.Spec.Class == topology.Dragonfly {
		if r := repairDragonflyMinimal(topo); r != nil {
			st, err := cdg.VerifyPartial(topo, r)
			if err == nil && st.Unroutable == disconnectedRoutes(topo, r.BaseVLs()) {
				rep.Stats = st
				rep.UnreachablePairs = st.Unroutable / r.BaseVLs()
				return r, rep, nil
			}
		}
		rep.FellBack = true
	}

	planes := 1
	if topo.Spec.Class == topology.Dragonfly {
		// Keep the plane claim so the fabric's VL layout stays valid;
		// groupOf stays nil, making HopVL the identity.
		planes = 2
	}
	r, err := computeUpDown(topo, planes)
	if err != nil {
		return nil, rep, err
	}
	st, err := cdg.VerifyPartial(topo, r)
	if err != nil {
		return nil, rep, fmt.Errorf("routing: repaired tables failed CDG proof: %w", err)
	}
	rep.Stats = st
	rep.UnreachablePairs = st.Unroutable / r.BaseVLs()
	return r, rep, nil
}

// repairDragonflyMinimal rebuilds the arithmetic minimal l-g-l tables
// and invalidates every entry whose port lost its link.  The caller
// accepts the result only if the CDG proof passes AND the unroutable
// count matches true disconnection — i.e. the failures only severed
// pairs no detour could have saved; otherwise minimal routing would
// strand reachable hosts and up*/down* takes over.  Returns nil when
// the layout itself cannot be rebuilt.
func repairDragonflyMinimal(topo *topology.Topology) *Routes {
	r, err := computeDragonfly(topo)
	if err != nil {
		return nil
	}
	for s := 0; s < topo.NumSwitches; s++ {
		for d := 0; d < topo.NumSwitches; d++ {
			if p := r.next[s][d]; p >= 0 && topo.Peer(s, p).Switch < 0 {
				r.next[s][d] = -1
			}
		}
	}
	return r
}

// disconnectedRoutes counts the (source, destination, base VL) routes
// between host-bearing switches that NO route set could serve, because
// the switches sit in different components of the degraded graph.
func disconnectedRoutes(topo *topology.Topology, baseVLs int) int {
	count := 0
	for s := 0; s < topo.NumSwitches; s++ {
		if topo.SwitchHosts(s) == 0 {
			continue
		}
		for d, hops := range topo.Distances(s) {
			if hops < 0 && topo.SwitchHosts(d) > 0 {
				count += baseVLs
			}
		}
	}
	return count
}
