// Package cdg verifies deadlock freedom of routing engines by building
// the channel-dependency graph (Dally & Seitz): one node per virtual
// channel — a (switch, output port, VL) triple — and one edge for every
// pair of consecutive channels some routed packet can hold at once.  A
// routing function is deadlock-free on wormhole/virtual-cut-through
// networks iff this graph is acyclic, so an exhaustive walk of the
// forwarding tables plus a cycle check is a machine proof for the
// shipped engines and the oracle for the property tests.
package cdg

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/arbtable"
	"repro/internal/topology"
)

// Engine is the slice of a routing engine the verifier needs: the
// destination-based forwarding function and the per-hop VL function.
// *routing.Routes implements it; tests substitute deliberately broken
// engines to prove the verifier rejects.
type Engine interface {
	// NextPortToSwitch returns the output port sw uses toward
	// destination switch dsw (-1 when sw == dsw or unroutable).
	NextPortToSwitch(sw, dsw int) int
	// HopVLToSwitch returns the wire VL used when sw transmits a packet
	// with base VL base toward destination switch dsw.
	HopVLToSwitch(sw, dsw int, base uint8) uint8
	// BaseVLs returns how many base data VLs the engine's SLtoVL
	// mapping may use; the proof covers every one of them.
	BaseVLs() int
}

// Stats summarizes the verified graph.
type Stats struct {
	// Channels is the number of (switch, port, VL) nodes that carry at
	// least one route.
	Channels int
	// Deps is the number of distinct channel-dependency edges.
	Deps int
	// Routes is the number of (source switch, destination switch, base
	// VL) routes walked.
	Routes int
	// Unroutable is the number of (source, destination, base VL) routes
	// VerifyPartial found disconnected at the source (Verify treats
	// those as errors).  Omitted from JSON when zero so pre-repair
	// reports are unchanged.
	Unroutable int `json:"Unroutable,omitempty"`
}

// CycleError reports a channel-dependency cycle with a witness.
type CycleError struct {
	// Cycle is the closed channel sequence, first == last.
	Cycle []Channel
}

// Channel identifies one virtual channel.
type Channel struct {
	Switch, Port int
	VL           uint8
}

func (c Channel) String() string {
	return fmt.Sprintf("(%d:%d vl%d)", c.Switch, c.Port, c.VL)
}

func (e *CycleError) Error() string {
	s := "cdg: channel-dependency cycle:"
	for i, c := range e.Cycle {
		if i > 0 {
			s += " ->"
		}
		s += " " + c.String()
	}
	return s
}

// Verify builds the channel-dependency graph of every route between
// host-bearing switches on every base VL and checks it for cycles.
// It returns the graph's statistics and a *CycleError holding
// a witness cycle if one exists.  Routes that do not terminate within
// the switch count are reported as errors too (a forwarding loop is a
// routing bug even before it deadlocks).
func Verify(topo *topology.Topology, eng Engine) (Stats, error) {
	st, _, err := verify(topo, eng, false)
	return st, err
}

// VerifyPartial is Verify for degraded fabrics: a route whose SOURCE
// has no next port toward the destination is counted in
// Stats.Unroutable instead of failing the proof, because a repaired
// route set legitimately disconnects host pairs that lost their only
// path.  A route that starts but dies mid-walk is still an error — a
// repair must never forward a packet toward a dead end.
func VerifyPartial(topo *topology.Topology, eng Engine) (Stats, error) {
	st, _, err := verify(topo, eng, true)
	return st, err
}

// numVLs bounds the hop VLs a route may use — the data VLs — and is the
// VL stride of the dense channel index.
const numVLs = arbtable.NumDataVLs

// errNotSeparable stops a one-base walk at a hop whose VLs are not
// plane-separable; verify then walks every base VL.
var errNotSeparable = errors.New("cdg: hop VLs not plane-separable")

// verify proves eng deadlock-free and returns how many base VLs it
// walked.  It first walks base VL 0 alone.  If every walked hop is
// plane-separable (see separable), base VL b's graph is base VL 0's
// with every VL shifted by b, and no two bases share a channel: the
// full graph is B disjoint copies of the base-0 graph, acyclic iff that
// one is, with B times its Stats.  On a hop that is not separable, on
// any walk error and on a cycle, verify walks every base VL, so errors
// and cycle witnesses are always those of the full walk (DESIGN.md §10).
func verify(topo *topology.Topology, eng Engine, allowPartial bool) (Stats, int, error) {
	baseVLs := max(eng.BaseVLs(), 0)
	if baseVLs > 1 {
		if st, err := walk(topo, eng, allowPartial, baseVLs, true); err == nil {
			return st, 1, nil
		}
	}
	st, err := walk(topo, eng, allowPartial, baseVLs, false)
	return st, baseVLs, err
}

// separable reports whether hop (sw, dst), which carries base VL 0 on
// v0, carries every base VL b < baseVLs on v0 + b, with v0 a multiple of
// baseVLs and v0 + baseVLs − 1 a data VL.  Then VL mod baseVLs is the
// base VL on the hop's channels.
func separable(eng Engine, sw, dst int, v0 uint8, baseVLs int) bool {
	if int(v0)%baseVLs != 0 || int(v0)+baseVLs-1 >= numVLs {
		return false
	}
	for b := 1; b < baseVLs; b++ {
		if eng.HopVLToSwitch(sw, dst, uint8(b)) != v0+uint8(b) {
			return false
		}
	}
	return true
}

// walk builds the graph in (source, destination, base VL) order and
// checks it for cycles.  With oneBase it walks base VL 0 only, checks
// every walked hop with separable and scales the Stats by baseVLs; a
// hop that fails returns errNotSeparable.
//
// Forwarding is destination-based and the hop VL a function of
// (switch, destination, base VL), so the routes toward one (destination,
// base VL) form a tree: once a walk from switch s has reached the
// destination, every later walk entering s repeats it hop for hop.  A
// done bit per (destination, base VL, switch) records that; a walk
// entering a done switch adds its one edge into the switch's channel
// and stops, since every later edge is already in the graph.  Every hop
// that is walked gets the full checks, so channel numbering, edge order,
// Stats, the first error and the cycle witness are those of walking
// every route to its end (DESIGN.md §10).
func walk(topo *topology.Topology, eng Engine, allowPartial bool, baseVLs int, oneBase bool) (Stats, error) {
	var st Stats
	n := topo.NumSwitches

	// Host-bearing switches are the only legal route endpoints.
	dests := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if topo.SwitchHosts(s) > 0 {
			dests = append(dests, s)
		}
	}

	bases := baseVLs
	if oneBase {
		bases = 1
	}
	routes := len(dests) * (len(dests) - 1) * bases
	g := graph{
		ports: topo.Ports(),
		index: make([]int32, n*topo.Ports()*numVLs),
		raw:   make([]uint64, 0, routes),
	}
	done := make([]uint64, (len(dests)*bases*n+63)/64)
	walked := make([]int, 0, n+1) // switches of the current walk
	for _, src := range dests {
		for di, dst := range dests {
			if src == dst {
				continue
			}
			for base := 0; base < bases; base++ {
				st.Routes++
				tree := (di*bases + base) * n
				prev := int32(-1)
				walked = walked[:0]
				for sw, steps := src, 0; sw != dst; steps++ {
					if steps > n {
						return st, fmt.Errorf("cdg: route %d->%d (base vl %d) does not terminate", src, dst, base)
					}
					p := eng.NextPortToSwitch(sw, dst)
					if b := tree + sw; done[b/64]&(1<<(b%64)) != 0 {
						g.edge(prev, g.channel(sw, p, eng.HopVLToSwitch(sw, dst, uint8(base))))
						break
					}
					if p < 0 {
						if allowPartial && sw == src {
							st.Unroutable++
							break
						}
						return st, fmt.Errorf("cdg: no route from switch %d to %d (base vl %d)", sw, dst, base)
					}
					e := topo.Peer(sw, p)
					if e.Switch < 0 {
						return st, fmt.Errorf("cdg: route %d->%d uses dead port %d:%d", src, dst, sw, p)
					}
					vl := eng.HopVLToSwitch(sw, dst, uint8(base))
					if vl >= numVLs {
						return st, fmt.Errorf("cdg: route %d->%d (base vl %d) leaves switch %d on vl %d, outside data VLs 0-%d",
							src, dst, base, sw, vl, numVLs-1)
					}
					if oneBase && !separable(eng, sw, dst, vl, baseVLs) {
						return st, errNotSeparable
					}
					cur := g.channel(sw, p, vl)
					g.edge(prev, cur)
					prev = cur
					walked = append(walked, sw)
					sw = e.Switch
				}
				// The walk reached dst (an unroutable source walked nothing).
				for _, sw := range walked {
					b := tree + sw
					done[b/64] |= 1 << (b % 64)
				}
			}
		}
	}
	st.Channels = int(g.channels)
	succ, off, color := g.adjacency()
	st.Deps = len(succ)
	if cyc := g.findCycle(succ, off, color); cyc != nil {
		return st, cyc
	}
	if oneBase {
		st.Channels *= baseVLs
		st.Deps *= baseVLs
		st.Routes *= baseVLs
		st.Unroutable *= baseVLs
	}
	return st, nil
}

// graph is the channel-dependency graph under construction.  Channels
// get ids in first-seen order through a dense index; edges are recorded
// as walked, duplicates included, and deduplicated when adjacency is
// built.
type graph struct {
	ports int
	// index[(sw*ports+port)*numVLs+vl] is the channel's id+1, 0 if unseen.
	index    []int32
	channels int32
	// raw holds every dependency as prev<<32|cur in the order walked.
	raw []uint64
}

// channel returns the id of channel (sw, port, vl), numbering it if new.
func (g *graph) channel(sw, port int, vl uint8) int32 {
	k := (sw*g.ports+port)*numVLs + int(vl)
	if g.index[k] == 0 {
		g.channels++
		g.index[k] = g.channels
	}
	return g.index[k] - 1
}

// edge records the dependency prev -> cur (none from the first hop of a
// route, prev < 0, nor from a channel to itself).
func (g *graph) edge(prev, cur int32) {
	if prev < 0 || prev == cur {
		return
	}
	if len(g.raw) == cap(g.raw) {
		// 1.5x: the initial capacity, one edge per route, is usually close.
		g.raw = slices.Grow(g.raw, max(len(g.raw)/2, 64))
	}
	g.raw = append(g.raw, uint64(prev)<<32|uint64(cur))
}

// adjacency returns the distinct dependencies in compressed sparse row
// form — channel u's successors are succ[off[u]:off[u+1]], in the order
// first recorded — and a zeroed per-channel scratch array for the DFS.
func (g *graph) adjacency() (succ, off, scratch []int32) {
	c := g.channels
	// A stable counting sort by source channel: off[u+2] counts, then
	// off[u+1] is u's write cursor, ending at the start of u+1.
	off = make([]int32, c+2)
	for _, e := range g.raw {
		off[e>>32+2]++
	}
	for u := 2; u < len(off); u++ {
		off[u] += off[u-1]
	}
	succ = make([]int32, len(g.raw))
	for _, e := range g.raw {
		u := e >> 32
		succ[off[u+1]] = int32(e)
		off[u+1]++
	}
	off = off[:c+1]

	// Keep each successor's first occurrence, compacting in place;
	// seen[v] == u+1 marks v as already a successor of u.
	seen := make([]int32, c)
	w, lo := int32(0), int32(0)
	for u := range c {
		hi := off[u+1]
		off[u] = w
		for _, v := range succ[lo:hi] {
			if seen[v] != u+1 {
				seen[v] = u + 1
				succ[w] = v
				w++
			}
		}
		lo = hi
	}
	off[c] = w
	clear(seen)
	return succ[:w], off, seen
}

// findCycle searches the graph depth-first from every channel in id
// order and returns the first cycle closed by a back edge, nil if there
// is none.  The search is iterative: the stack is the grey path, each
// frame a channel and the offset of its next successor, so successors
// are taken in insertion order, as the recursive search took them.
// color must be zeroed, one entry per channel.
func (g *graph) findCycle(succ, off, color []int32) *CycleError {
	const (
		white = 0 // unvisited
		grey  = 1 // on the stack
		black = 2 // fully explored
	)
	type frame struct{ u, next int32 }
	var stack []frame
	for root := range g.channels {
		if color[root] != white {
			continue
		}
		color[root] = grey
		stack = append(stack[:0], frame{root, off[root]})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next == off[f.u+1] {
				color[f.u] = black
				stack = stack[:len(stack)-1]
				continue
			}
			v := succ[f.next]
			f.next++
			switch color[v] {
			case white:
				color[v] = grey
				stack = append(stack, frame{v, off[v]})
			case grey:
				// The back edge closes the cycle v -> ... -> top -> v.
				j := len(stack) - 1
				for stack[j].u != v {
					j--
				}
				ids := make([]int32, 0, len(stack)-j+1)
				for _, f := range stack[j:] {
					ids = append(ids, f.u)
				}
				return &CycleError{Cycle: g.decode(append(ids, v))}
			}
		}
	}
	return nil
}

// decode turns channel ids back into channels.  Only a cycle witness
// needs it, so the index is inverted on demand.
func (g *graph) decode(ids []int32) []Channel {
	key := make([]int, g.channels)
	for k, id := range g.index {
		if id > 0 {
			key[id-1] = k
		}
	}
	out := make([]Channel, len(ids))
	for i, id := range ids {
		k := key[id]
		out[i] = Channel{Switch: k / numVLs / g.ports, Port: k / numVLs % g.ports, VL: uint8(k % numVLs)}
	}
	return out
}
