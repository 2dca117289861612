package fabric

import (
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/arbtable"
	"repro/internal/faults"
	"repro/internal/topology"
)

// This file holds what the word-wide crossbar replaced, kept as test
// references, and the differential tests that compare the two: the
// probe-loop iSLIP (matchReference), the 32x32 (+32x32) queue scans of
// a scheduling pass (scanRequests) — which are also what the remembered
// request columns, the lazily cleared busy masks and the kick's "can
// anything match" predicate are held to — and the row-matrix entry of
// the MWM oracle the oracle tests call.

// match solves the weight matrix w (only the radix-sized corner
// participates) with the oracle.
func (sc *mwmScratch) match(w *[pP][pP]int32, match *[pP]int8) (size int, weight int64) {
	for i := 0; i < sc.n; i++ {
		copy(sc.w[i*sc.n:(i+1)*sc.n], w[i][:sc.n])
	}
	return sc.solve(match)
}

// matchReference is ISLIPState.Match as it was before the word-wide
// rewrite, verbatim: every output probes up to P inputs from its grant
// pointer with a % per probe, every granted input probes up to P
// outputs from its accept pointer.
func (st *ISLIPState) matchReference(req *[pP]uint32, iters int, match *[pP]int8) int {
	const P = topology.SwitchPorts
	for j := range match {
		match[j] = -1
	}
	if iters < 1 {
		iters = 1
	}
	var inMatched uint32
	size := 0
	for it := 0; it < iters && size < P; it++ {
		// Grant phase.
		var grants [P]uint32 // per input: outputs granting it this round
		granted := false
		for j := 0; j < P; j++ {
			if match[j] >= 0 {
				continue
			}
			g := int(st.Grant[j]) % P
			for k := 0; k < P; k++ {
				i := (g + k) % P
				if inMatched&(1<<i) == 0 && req[i]&(1<<j) != 0 {
					grants[i] |= 1 << j
					granted = true
					break
				}
			}
		}
		if !granted {
			break // no addable edge remains; the matching is maximal
		}
		// Accept phase.
		for i := 0; i < P; i++ {
			if grants[i] == 0 {
				continue
			}
			a := int(st.Accept[i]) % P
			for k := 0; k < P; k++ {
				j := (a + k) % P
				if grants[i]&(1<<j) == 0 {
					continue
				}
				match[j] = int8(i)
				inMatched |= 1 << i
				size++
				if it == 0 {
					st.Grant[j] = uint8((i + 1) % P)
					st.Accept[i] = uint8((j + 1) % P)
				}
				break
			}
		}
	}
	return size
}

// TestTranspose32 checks the block-swap transpose against the
// definition on random matrices.
func TestTranspose32(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 64; round++ {
		var a, want [32]uint32
		for i := range a {
			a[i] = rng.Uint32()
			if round%4 == 0 {
				a[i] &= rng.Uint32() & rng.Uint32() // sparse
			}
		}
		for i := range a {
			for j := 0; j < 32; j++ {
				if a[i]&(1<<j) != 0 {
					want[j] |= 1 << i
				}
			}
		}
		got := a
		transpose32(&got)
		if got != want {
			t.Fatalf("round %d: transpose differs from the definition", round)
		}
	}
}

// compareISLIP runs Match and matchReference from the same state on
// the same requests and fails on any difference in the matching, its
// size or the successor pointer state.
func compareISLIP(t *testing.T, name string, st ISLIPState, req *[pP]uint32, iters int) ISLIPState {
	t.Helper()
	ref := st
	var got, want [pP]int8
	size := st.Match(req, iters, &got)
	wantSize := ref.matchReference(req, iters, &want)
	if size != wantSize || got != want {
		t.Fatalf("%s iters %d: Match size %d %v, reference size %d %v", name, iters, size, got, wantSize, want)
	}
	if st != ref {
		t.Fatalf("%s iters %d: pointers after Match %+v, after the reference %+v", name, iters, st, ref)
	}
	return st
}

// TestISLIPMatchesReference is the differential test of the word-wide
// matcher: fixed request shapes at radix 8, 16 and 32 (empty, full, one
// column, one row, diagonal, rows at and beyond the radix) under
// in-range, colliding and out-of-range pointers at every iteration
// depth, then random matrices and pointer states fed through
// consecutive passes so pointer updates feed back.
func TestISLIPMatchesReference(t *testing.T) {
	pointerStates := map[string]func(*ISLIPState){
		"reset": func(*ISLIPState) {},
		"colliding": func(st *ISLIPState) {
			for i := range st.Grant {
				st.Grant[i], st.Accept[i] = 5, 5
			}
		},
		"counter-rotating": func(st *ISLIPState) {
			for i := range st.Grant {
				st.Grant[i] = uint8(i)
				st.Accept[i] = uint8(pP - 1 - i)
			}
		},
		"out-of-range": func(st *ISLIPState) {
			for i := range st.Grant {
				st.Grant[i] = uint8(200 + i)
				st.Accept[i] = 255
			}
		},
	}
	for _, radix := range []int{8, 16, 32} {
		full := uint32(uint64(1)<<radix - 1)
		shapes := map[string][pP]uint32{"empty": {}}
		var m [pP]uint32
		for i := 0; i < radix; i++ {
			m[i] = full
		}
		shapes["full"] = m
		m = [pP]uint32{}
		for i := 0; i < radix; i++ {
			m[i] = 1 << (radix - 1)
		}
		shapes["one-column"] = m
		m = [pP]uint32{}
		m[radix/2] = full
		shapes["one-row"] = m
		m = [pP]uint32{}
		for i := 0; i < radix; i++ {
			m[i] = 1 << (radix - 1 - i)
		}
		shapes["anti-diagonal"] = m
		// Requests from rows at and past the radix, and for outputs past
		// it: Match is specified over the full array whatever the radix
		// of the switch it serves.
		m = [pP]uint32{}
		for i := range m {
			m[i] = full>>1 | 1<<uint(pP-1-i%4)
		}
		shapes["beyond-radix"] = m

		for shape, req := range shapes {
			for pname, setup := range pointerStates {
				for iters := 1; iters <= pP; iters++ {
					var st ISLIPState
					setup(&st)
					req := req
					name := shape + "/" + pname
					for pass := 0; pass < 3; pass++ {
						st = compareISLIP(t, name, st, &req, iters)
					}
				}
			}
		}

		rng := rand.New(rand.NewSource(int64(radix)))
		for round := 0; round < 400; round++ {
			var st ISLIPState
			for i := range st.Grant {
				st.Grant[i] = uint8(rng.Intn(256))
				st.Accept[i] = uint8(rng.Intn(256))
			}
			density := []float64{0.05, 0.2, 0.5, 0.9}[round%4]
			for pass := 0; pass < 8; pass++ {
				var req [pP]uint32
				for i := 0; i < radix; i++ {
					for j := 0; j < radix; j++ {
						if rng.Float64() < density {
							req[i] |= 1 << j
						}
					}
				}
				st = compareISLIP(t, "random", st, &req, 1+rng.Intn(pP))
			}
		}
	}
}

// voqPass is what one scheduling pass at an input-queued switch would
// decide before matching: per free output the input whose VL 15 head it
// serves (-1 none), and the data request matrix built from the inputs
// and outputs the VL 15 phase left free.
type voqPass struct {
	mgmt       [pP]int8
	req        [pP]uint32
	backlogged int
}

// scanRequests is the candidate search voqSched ran before the
// occupancy words replaced it, kept as the reference: availability
// over every port of the switch, a round-robin probe of every input per
// free output for VL 15, and a probe of every (input, output, VL)
// queue for the request matrix.  A queue's head is found by walking the
// input buffer for the first packet the routing tables send to the
// output — not through the packet's recorded output, nor any of the
// maintained sets — and nothing is changed.
func scanRequests(n *Network, s int) voqPass {
	node := n.switches[s]
	P := len(node.out)
	now := n.shardForSwitch(s).eng.Now()
	capacity := n.bufferCapacity()
	head := func(i, j, vl int) *Packet {
		q := &node.in[i].queues[vl]
		for pkt := q.front(); pkt != nil; pkt = q.after(pkt) {
			if n.Routes.NextPort(s, pkt.Dst) == j {
				return pkt
			}
		}
		return nil
	}

	var pass voqPass
	for j := range pass.mgmt {
		pass.mgmt[j] = -1
	}
	var outFree uint32
	for j := 0; j < P; j++ {
		out := &node.out[j]
		if !out.wired || out.busyUntil > now {
			continue
		}
		if n.Faults != nil && n.Faults.BlockedUntil(faults.SwitchPortKey(s, j), now) > now {
			continue
		}
		outFree |= 1 << j
	}
	var inFree uint32
	for i := 0; i < P; i++ {
		if node.in[i].busyUntil <= now {
			inFree |= 1 << i
		}
	}
	if outFree == 0 || inFree == 0 {
		return pass
	}

	for j := 0; j < P; j++ {
		if outFree&(1<<j) == 0 {
			continue
		}
		out := &node.out[j]
		down := n.occView(out)
		for k := 0; k < P; k++ {
			i := (int(out.rr[arbtable.MgmtVL]) + k) % P
			if inFree&(1<<i) == 0 {
				continue
			}
			pkt := head(i, j, arbtable.MgmtVL)
			if pkt == nil {
				continue
			}
			if down != nil && int(down[arbtable.MgmtVL])+pkt.Wire > capacity {
				continue
			}
			pass.mgmt[j] = int8(i)
			inFree &^= 1 << i
			outFree &^= 1 << j
			break
		}
	}

	for i := 0; i < P; i++ {
		if inFree&(1<<i) == 0 {
			continue
		}
		for j := 0; j < P; j++ {
			if outFree&(1<<j) == 0 {
				continue
			}
			down := n.occView(&node.out[j])
			for vl := 0; vl < arbtable.NumDataVLs; vl++ {
				pkt := head(i, j, vl)
				if pkt == nil {
					continue
				}
				outvl := vl
				if n.planes > 1 {
					outvl = int(n.Routes.HopVL(node.id, pkt.Dst, pkt.Base))
				}
				if down == nil || int(down[outvl])+pkt.Wire <= capacity {
					pass.req[i] |= 1 << j
					break
				}
			}
		}
		if pass.req[i] != 0 {
			pass.backlogged++
		}
	}
	return pass
}

// indexRequests is what voqSched computes for the same switch now,
// through the same helpers, with the pops and transmits of the VL 15
// phase left out (they do not feed the data request matrix).  Like a
// pass it brings the busy masks up to date and rebuilds the request
// columns it finds invalid; a column some event changed without
// invalidating is read stale here, exactly as a pass would read it.
func indexRequests(n *Network, s int) voqPass {
	node := n.switches[s]
	x := &node.ix
	sh := n.shardForSwitch(s)
	now := sh.eng.Now()
	capacity := n.bufferCapacity()
	var pass voqPass
	for j := range pass.mgmt {
		pass.mgmt[j] = -1
	}
	outFree, inFree := sh.voqFreePorts(node, now)
	if outFree == 0 || inFree == 0 {
		return pass
	}
	for w := outFree & x.mgmtOuts; w != 0; w &= w - 1 {
		j := bits.TrailingZeros32(w)
		if i := n.mgmtCandidate(node, j, x.mgmtCols()[j]&inFree, now); i >= 0 {
			pass.mgmt[j] = int8(i)
			inFree &^= 1 << i
			outFree &^= 1 << j
		}
	}
	var cols [pP]uint32
	for w := outFree & x.dataOuts; w != 0; w &= w - 1 {
		j := bits.TrailingZeros32(w)
		cols[j] = n.voqColumn(node, j, capacity) & inFree
	}
	transpose32(&cols)
	pass.req = cols
	for _, row := range cols {
		if row != 0 {
			pass.backlogged++
		}
	}
	return pass
}

// wantsPass is voqCanMatch as the retired scans define it: a pass would
// serve a VL 15 head or find a data request.
func (p *voqPass) wantsPass() bool {
	for _, i := range p.mgmt {
		if i >= 0 {
			return true
		}
	}
	return p.backlogged > 0
}

// voqCanMatch reports whether a scheduling pass at node would serve
// anything at time now, from what a pass reads: a free output with a VL
// 15 candidate, or with a remembered data request from a free input.  A
// VL 15 transfer takes an input and an output away from the data phase,
// but then the answer is already yes; without one, the data phase sees
// exactly these masks.
func (sh *shard) voqCanMatch(node *swNode, now int64) bool {
	n := sh.n
	x := &node.ix
	outFree, inFree := sh.voqFreePorts(node, now)
	if outFree == 0 || inFree == 0 {
		return false
	}
	for w := outFree & x.mgmtOuts; w != 0; w &= w - 1 {
		j := bits.TrailingZeros32(w)
		if n.mgmtCandidate(node, j, x.mgmtCols()[j]&inFree, now) >= 0 {
			return true
		}
	}
	capacity := n.bufferCapacity()
	for w := outFree & x.dataOuts; w != 0; w &= w - 1 {
		if n.voqColumn(node, bits.TrailingZeros32(w), capacity)&inFree != 0 {
			return true
		}
	}
	return false
}

// voqStats counts how hard a differential run exercised the scheduling
// pass, so a test that compared nothing but idle switches fails loudly.
type voqStats struct {
	requests  int // request-matrix edges seen
	contended int // outputs requested by more than one input
	blocked   int // non-empty data groups that raised no request
	mgmt      int // VL 15 candidates seen
	idle      int // switches voqCanMatch called idle
	busy      int // switches it called worth a pass
}

// compareAllSwitches checks, for every input-queued switch, that the
// occupancy words, the remembered columns and the busy masks yield
// exactly the VL 15 picks and the request matrix of the reference scan
// (which reads queues, credit and port timestamps only), and that
// voqCanMatch, read from the same words, says "worth a pass" exactly
// when that scan finds a VL 15 candidate or a request.
func compareAllSwitches(t *testing.T, n *Network, st *voqStats) {
	t.Helper()
	for s, node := range n.switches {
		want, got := scanRequests(n, s), indexRequests(n, s)
		if got != want {
			t.Fatalf("t=%d switch %d: occupancy words give mgmt %v req %x backlogged %d, scan gives mgmt %v req %x backlogged %d",
				n.Now(), s, got.mgmt, got.req, got.backlogged, want.mgmt, want.req, want.backlogged)
		}
		sh := n.shardForSwitch(s)
		if can := sh.voqCanMatch(node, sh.eng.Now()); can != want.wantsPass() {
			t.Fatalf("t=%d switch %d: voqCanMatch %v, scan gives mgmt %v req %x",
				n.Now(), s, can, want.mgmt, want.req)
		} else if can {
			st.busy++
		} else {
			st.idle++
		}
		var cols [pP]uint32
		for i, row := range want.req {
			st.requests += bits.OnesCount32(row)
			for ; row != 0; row &= row - 1 {
				cols[bits.TrailingZeros32(row)] |= 1 << i
			}
		}
		for j, c := range cols {
			if c&(c-1) != 0 {
				st.contended++
			}
			if j < node.ix.r {
				st.blocked += bits.OnesCount32(node.ix.dataCols()[j] &^ c)
			}
		}
		for _, i := range want.mgmt {
			if i >= 0 {
				st.mgmt++
			}
		}
	}
}

// matchAuditor hooks Network.onMatch and replays every scheduling pass
// through the references: the request matrix the pass matched must be
// the scan's (at onMatch time the VL 15 phase has already made its
// inputs and outputs busy, so the scan sees the masks the data phase
// saw), and the matching must be what the reference scheduler — the
// probe-loop iSLIP from a shadow pointer state, or the oracle on
// scanned occupancies — computes from it.  State is per switch, so the
// hook is safe on a parallel run's shard goroutines.
type matchAuditor struct {
	shadow  []ISLIPState
	oracle  []*mwmScratch
	matches []int
	edges   []int
}

func auditMatches(t *testing.T, n *Network) *matchAuditor {
	a := &matchAuditor{
		shadow:  make([]ISLIPState, len(n.switches)),
		oracle:  make([]*mwmScratch, len(n.switches)),
		matches: make([]int, len(n.switches)),
		edges:   make([]int, len(n.switches)),
	}
	if n.Cfg.SwitchModel == ModelVOQMWM {
		for s := range a.oracle {
			a.oracle[s] = newMWMScratch(n.Topo.Ports())
		}
	}
	n.onMatch = func(sw int, match *[pP]int8, size int) {
		node := n.switches[sw]
		scan := scanRequests(n, sw)
		var want [pP]int8
		var wantSize int
		if n.Cfg.SwitchModel == ModelVOQMWM {
			var w [pP][pP]int32
			for i, row := range scan.req {
				for ; row != 0; row &= row - 1 {
					j := bits.TrailingZeros32(row)
					for vl := 0; vl < arbtable.NumVLs; vl++ {
						q := &node.in[i].queues[vl]
						for pkt := q.front(); pkt != nil; pkt = q.after(pkt) {
							if n.Routes.NextPort(sw, pkt.Dst) == j {
								w[i][j]++
							}
						}
					}
				}
			}
			wantSize, _ = a.oracle[sw].match(&w, &want)
		} else {
			wantSize = a.shadow[sw].matchReference(&scan.req, n.islipIters, &want)
			if a.shadow[sw] != node.xbar.islip {
				t.Errorf("t=%d switch %d: iSLIP pointers %+v, reference %+v", n.Now(), sw, node.xbar.islip, a.shadow[sw])
			}
		}
		if size != wantSize || *match != want {
			t.Errorf("t=%d switch %d: matched %v (size %d), reference on the scanned requests %x gives %v (size %d)",
				n.Now(), sw, *match, size, scan.req, want, wantSize)
		}
		a.matches[sw]++
		for _, row := range scan.req {
			a.edges[sw] += bits.OnesCount32(row)
		}
	}
	return a
}

// check fails a run whose matchings were all trivial.
func (a *matchAuditor) check(t *testing.T) {
	t.Helper()
	matches, edges := 0, 0
	for s := range a.matches {
		matches += a.matches[s]
		edges += a.edges[s]
	}
	if matches == 0 || edges <= matches {
		t.Fatalf("matchings too quiet to prove anything: %d passes, %d request edges", matches, edges)
	}
}

// buildVOQSharded creates an input-queued network over a generated
// topology with the given shard count.
func buildVOQSharded(t *testing.T, spec topology.Spec, model SwitchModel, seed int64, shards int) *Network {
	t.Helper()
	topo, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(topo.NumSwitches, 256, seed)
	cfg.SwitchModel = model
	cfg.Shards = shards
	n, err := NewWithTopology(cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestVOQPermanentFaultPostsNoEvents is the regression for the event
// leak under permanent fault windows: a scheduling pass used to post a
// wake-up at the end of the window of every blocked output, every
// pass, including windows that end at faults.Forever — one event per
// pass that never executes.  With one port permanently down the event
// population must stay bounded while the other ports keep delivering.
func TestVOQPermanentFaultPostsNoEvents(t *testing.T) {
	topo, err := topology.Generate(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(4, 256, 7)
	cfg.SwitchModel = ModelVOQISLIP
	n, err := NewWithTopology(cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	m := n.EnableMetrics()

	// Host 0's switch keeps scheduling for a flow between two of its
	// own hosts; one of its inter-switch ports is down for good.
	sw, _ := topo.HostSwitch(0)
	local := -1
	for h := 1; h < topo.NumHosts(); h++ {
		if s, _ := topo.HostSwitch(h); s == sw {
			local = h
			break
		}
	}
	down := -1
	for p := 0; p < topo.Ports(); p++ {
		if topo.Peer(sw, p).Switch >= 0 {
			down = p
			break
		}
	}
	if local < 0 || down < 0 {
		t.Fatalf("switch %d: local host %d, inter-switch port %d", sw, local, down)
	}
	inj := faults.New(faults.Config{Seed: 1})
	inj.AddLinkDown(faults.SwitchPortKey(sw, down), 0, faults.Forever)
	n.SetFaults(inj)

	f := admitFlow(t, n, 0, local, 9, 64)
	n.Start()
	n.Engine.Run(100 * f.IAT)
	early := n.Engine.Pending()
	n.Engine.Run(2000 * f.IAT)

	passes := m.Snapshot().VOQ.SchedPasses
	if passes < 1000 {
		t.Fatalf("only %d scheduling passes ran", passes)
	}
	if f.delPkts < 1000 {
		t.Fatalf("only %d packets delivered past the dead port", f.delPkts)
	}
	if late := n.Engine.Pending(); late > early+8 {
		t.Fatalf("pending events grew %d -> %d over %d passes: wake-ups posted at the end of a permanent window",
			early, late, passes)
	}
}

// TestVOQStateSizedByRadix is the memory gate of the radix-sized VOQ
// state: the VOQs are an index over the input VL buffers, so an
// input-queued switch of the k=8 and k=16 fat-trees (radix 8 and 16)
// may hold at most voqExtraBytesPerSwitch more heap than its WRR twin,
// and each model's request index carves only the view its rule reads.
// Storing every (input, output, VL) queue header cost r·r·16·24 bytes
// on top: 24.6 kB at radix 8, 98 kB at radix 16.
func TestVOQStateSizedByRadix(t *testing.T) {
	const voqExtraBytesPerSwitch = 4 << 10
	for _, k := range []int{8, 16} {
		topo, err := (topology.Spec{Class: topology.FatTree, K: k}).Generate()
		if err != nil {
			t.Fatal(err)
		}
		var held [2]int64
		for m, model := range []SwitchModel{ModelWRR, ModelVOQISLIP} {
			cfg := DefaultConfig(topo.NumSwitches, 256, 7)
			cfg.SwitchModel = model
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			n, err := NewWithTopology(cfg, topo)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			held[m] = int64(after.HeapAlloc) - int64(before.HeapAlloc)
			// Each model carves its own view's words and none of the
			// other's: cand (r·NumVLs), vls and queued (r each) under
			// WRR; dataCols, mgmtCols and req (r each) and nonEmpty (r·r)
			// under VOQ-iSLIP.
			r := topo.Ports()
			n32, n16 := r*arbtable.NumVLs, 2*r
			if model != ModelWRR {
				n32, n16 = 3*r, r*r
			}
			for _, node := range n.switches {
				x := &node.ix
				if x.r != r || x.head != (model == ModelWRR) || cap(x.w32) != n32 || cap(x.w16) != n16 {
					t.Fatalf("k=%d %s switch %d: request index r=%d head view %v, %d uint32 and %d uint16 words; want r=%d, %d and %d",
						k, model, node.id, x.r, x.head, cap(x.w32), cap(x.w16), r, n32, n16)
				}
			}
			runtime.KeepAlive(n)
		}
		extra := (held[1] - held[0]) / int64(topo.NumSwitches)
		t.Logf("k=%d: WRR %d B, VOQ-iSLIP %d B per switch (%+d)", k,
			held[0]/int64(topo.NumSwitches), held[1]/int64(topo.NumSwitches), extra)
		if extra > voqExtraBytesPerSwitch {
			t.Errorf("k=%d: a VOQ-iSLIP switch holds %d bytes more than its WRR twin, budget %d",
				k, extra, voqExtraBytesPerSwitch)
		}
	}
}
