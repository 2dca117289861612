package cdg

import (
	"fmt"

	"repro/internal/topology"
)

// refVerify is the retired verifier, kept as the differential-test
// reference: every (src, dst, base VL) route walked hop by hop to its
// end, channels numbered through a map keyed on the triple, edges
// deduplicated through a map of id pairs into per-channel adjacency
// slices, and a recursive DFS.  It accepts any hop VL the engine emits.
func refVerify(topo *topology.Topology, eng Engine, allowPartial bool) (Stats, error) {
	var st Stats

	var dests []int
	for s := 0; s < topo.NumSwitches; s++ {
		if topo.SwitchHosts(s) > 0 {
			dests = append(dests, s)
		}
	}

	ids := make(map[Channel]int)
	chans := []Channel{}
	adj := [][]int{}
	edge := make(map[[2]int]bool)
	chanID := func(c Channel) int {
		if id, ok := ids[c]; ok {
			return id
		}
		id := len(chans)
		ids[c] = id
		chans = append(chans, c)
		adj = append(adj, nil)
		return id
	}

	baseVLs := eng.BaseVLs()
	for _, src := range dests {
		for _, dst := range dests {
			if src == dst {
				continue
			}
			for base := 0; base < baseVLs; base++ {
				st.Routes++
				prev := -1
				sw := src
				for steps := 0; sw != dst; steps++ {
					if steps > topo.NumSwitches {
						return st, fmt.Errorf("cdg: route %d->%d (base vl %d) does not terminate", src, dst, base)
					}
					p := eng.NextPortToSwitch(sw, dst)
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
					cur := chanID(Channel{Switch: sw, Port: p, VL: eng.HopVLToSwitch(sw, dst, uint8(base))})
					if prev >= 0 && prev != cur {
						if k := [2]int{prev, cur}; !edge[k] {
							edge[k] = true
							adj[prev] = append(adj[prev], cur)
						}
					}
					prev = cur
					sw = e.Switch
				}
			}
		}
	}
	st.Channels = len(chans)
	st.Deps = len(edge)

	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(chans))
	parent := make([]int, len(chans))
	for i := range parent {
		parent[i] = -1
	}
	var visit func(int) *CycleError
	visit = func(u int) *CycleError {
		color[u] = grey
		for _, v := range adj[u] {
			switch color[v] {
			case white:
				parent[v] = u
				if err := visit(v); err != nil {
					return err
				}
			case grey:
				cyc := []Channel{chans[v]}
				for x := u; x != v; x = parent[x] {
					cyc = append(cyc, chans[x])
				}
				cyc = append(cyc, chans[v])
				for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
					cyc[i], cyc[j] = cyc[j], cyc[i]
				}
				return &CycleError{Cycle: cyc}
			}
		}
		color[u] = black
		return nil
	}
	for u := range chans {
		if color[u] == white {
			if err := visit(u); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}
