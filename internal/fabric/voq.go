package fabric

import (
	"fmt"
	"math/bits"

	"repro/internal/arbtable"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
)

// This file is the input-queued rule of the switch pipeline (see
// pipeline.go): a crossbar matched per pass by an iSLIP arbiter with
// per-port round-robin grant/accept pointers, or by an exact
// maximum-weight-matching oracle that doubles as the correctness
// reference in tests.  The matching decides WHICH input feeds an output;
// the output's arbitration table still decides which lane goes, so the
// fill-in algorithm's distance guarantee can be audited under
// head-of-line dynamics (the -exp hol experiment).
//
// Where this diverges from the xbar_router exemplar (SNIPPETS.md
// Snippet 1): packets are buffered per (input, VL) rather than per
// input; scheduling is event-driven on packet boundaries instead of a
// fixed Advance() clock; grants respect downstream per-VL credits; and
// the iSLIP pointers update only on accepted first-iteration grants (the
// published algorithm; the exemplar advances its single pointer
// unconditionally).

// SwitchModel selects the switch hardware the fabric simulates.  The
// zero value is the classic model of the paper's evaluation.
type SwitchModel int

const (
	// ModelWRR is the output-driven model of the paper's section 4.1:
	// per-input-VL FIFOs, every output port scheduling independently
	// over the head packets routed to it (the default).
	ModelWRR SwitchModel = iota
	// ModelVOQISLIP is the input-queued model: per-input VOQs over the
	// input VL buffers and a crossbar matched per pass by iterative SLIP.
	ModelVOQISLIP
	// ModelVOQMWM is the input-queued model scheduled by the exact
	// maximum-weight-matching oracle (weights = VOQ occupancy).  The
	// solver is O(P·2^P) per pass, fine for the 8-port radix but meant
	// for small fabrics and as the test oracle.
	ModelVOQMWM
)

// DefaultISLIPIters is the request-grant-accept iteration count used
// when Config.ISLIPIters is zero.  McKeown's rule of thumb is log2 of
// the port count, the depth at which iSLIP matchings stop growing in
// practice; 3 is that depth for the 8-port radix and is kept at radix
// 16 and 32 too, where it is one and two iterations short of the rule.
const DefaultISLIPIters = 3

func (m SwitchModel) String() string {
	switch m {
	case ModelWRR:
		return "wrr"
	case ModelVOQISLIP:
		return "voq-islip"
	case ModelVOQMWM:
		return "voq-mwm"
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// ISLIPState is the round-robin pointer state of one iSLIP crossbar
// scheduler: a grant pointer per output and an accept pointer per
// input.  The zero value (all pointers at slot 0) is the reset state;
// pointers desynchronize within the first few passes under load, which
// is what gives iSLIP its throughput.
type ISLIPState struct {
	Grant  [topology.SwitchPorts]uint8 // per-output grant pointer
	Accept [topology.SwitchPorts]uint8 // per-input accept pointer
}

// noMatch is the idle matching: every output unmatched.
var noMatch = func() (m [topology.SwitchPorts]int8) {
	for j := range m {
		m[j] = -1
	}
	return m
}()

// firstFrom returns the member of set reached first when the ports are
// visited in the order from, from+1, ... wrapping at SwitchPorts; set
// must not be empty.  Rotating the word right by from puts port
// from+k at bit k for the ports at or above from and at bit k+32-from
// for those below it, so the lowest set bit of the rotated word is the
// first member a probe loop over (from+k) mod SwitchPorts would meet —
// at any SwitchPorts up to the word width, since no port at or above
// it is ever in a set.
func firstFrom(set uint32, from int) int {
	return (bits.TrailingZeros32(bits.RotateLeft32(set, -from)) + from) & 31
}

// Match computes one crossbar matching by iters request-grant-accept
// rounds over the request matrix req (bit j of req[i] set = input i
// has an eligible packet for output j).  match[j] receives the input
// matched to output j, -1 when the output stays idle; the matching
// size is returned.
//
// The algorithm is the published iSLIP: each unmatched output grants
// the first requesting unmatched input at or after its grant pointer;
// each input holding grants accepts the first at or after its accept
// pointer; pointers move one past the accepted partner only when the
// accept happens in the FIRST iteration (the property that makes the
// pointers desynchronize instead of chasing each other).  Matched
// pairs are locked for the remaining iterations.  Out-of-range
// pointer values (a desynchronized or fuzzed state) are reduced mod
// the port count rather than trusted.
//
// The scheduler works on request COLUMNS (see matchColumns); this
// row-matrix form transposes first.  The fabric's scheduling pass
// builds columns directly and never comes through here.
func (st *ISLIPState) Match(req *[topology.SwitchPorts]uint32, iters int, match *[topology.SwitchPorts]int8) int {
	cols := *req
	var outs uint32
	for _, row := range cols {
		outs |= row
	}
	transpose32(&cols)
	return st.matchColumns(&cols, outs, iters, match)
}

// transpose32 transposes a 32x32 bit matrix in place (bit j of a[i]
// becomes bit i of a[j]) by swapping off-diagonal blocks of halving
// size: 5 rounds of 16 word pairs.
func transpose32(a *[32]uint32) {
	m := uint32(0x0000ffff)
	for j := uint(16); j != 0; j, m = j>>1, m^m<<(j>>1) {
		for k := uint(0); k < 32; k = (k + j + 1) &^ j {
			t := (a[k]>>j ^ a[k+j]) & m
			a[k] ^= t << j
			a[k+j] ^= t
		}
	}
}

// matchColumns is the iSLIP scheduler over request columns: bit i of
// cols[j] set = input i requests output j, and outs is the set of
// outputs with a non-empty column.  Each round is word-wide: an output
// grants firstFrom(its unmatched requesters, its grant pointer), an
// input accepts firstFrom(the outputs granting it, its accept pointer),
// and only outputs that can still grant are visited.  Within a round
// the set of matched inputs is fixed while outputs grant, and every
// output grants one input, so the order outputs and inputs are visited
// in does not matter.
func (st *ISLIPState) matchColumns(cols *[topology.SwitchPorts]uint32, outs uint32, iters int, match *[topology.SwitchPorts]int8) int {
	const P = topology.SwitchPorts
	*match = noMatch
	if iters < 1 {
		iters = 1
	}
	var grants [P]uint32 // per input: outputs granting it this round
	var inMatched uint32
	size := 0
	for it := 0; it < iters && outs != 0; it++ {
		var granted uint32 // inputs holding a grant
		for w := outs; w != 0; w &= w - 1 {
			j := bits.TrailingZeros32(w)
			c := cols[j] &^ inMatched
			if c == 0 {
				outs &^= 1 << j // every requester is matched elsewhere
				continue
			}
			i := firstFrom(c, int(st.Grant[j])%P)
			grants[i] |= 1 << j
			granted |= 1 << i
		}
		// Every granted input is unmatched, so each accepts exactly one
		// grant; a round that grants nothing leaves a maximal matching
		// and the loop condition ends it (outs is empty by then).
		for w := granted; w != 0; w &= w - 1 {
			i := bits.TrailingZeros32(w)
			j := firstFrom(grants[i], int(st.Accept[i])%P)
			grants[i] = 0
			match[j] = int8(i)
			inMatched |= 1 << i
			outs &^= 1 << j
			size++
			if it == 0 {
				st.Grant[j] = uint8((i + 1) % P)
				st.Accept[i] = uint8((j + 1) % P)
			}
		}
	}
	return size
}

// mwmScratch is the workspace of the exact maximum-weight-matching
// solver: DP tables over output subsets plus the per-pass weight
// matrix.  It lives on the shard so a scheduling pass allocates
// nothing.  Everything is sized by the fabric's radix (the port count
// the topology actually uses), so an 8-port fabric keeps its
// 256-subset tables instead of paying for the full 2^16 state space.
type mwmScratch struct {
	n   int        // radix: inputs/outputs run over 0..n-1
	w   []int32    // w[i*n+j] > 0 is an edge from input i to output j
	dp  [2][]int64 // 1<<n entries each
	par [][]int8   // n rows of 1<<n entries
}

// newMWMScratch allocates the solver workspace for an n-port switch.
func newMWMScratch(n int) *mwmScratch {
	sc := &mwmScratch{n: n, w: make([]int32, n*n)}
	sc.dp[0] = make([]int64, 1<<n)
	sc.dp[1] = make([]int64, 1<<n)
	sc.par = make([][]int8, n)
	for i := range sc.par {
		sc.par[i] = make([]int8, 1<<n)
	}
	return sc
}

// solve computes an exact maximum-weight matching of the weight matrix
// sc.w by dynamic programming over output subsets, O(P²·2^P).
// match[j] receives the input assigned to output j (-1 when
// unmatched); the matching size and total weight are returned.  Fully
// deterministic: ties prefer leaving the input unmatched, then the
// lowest output index, so the oracle's decisions are reproducible from
// the weights alone.
func (sc *mwmScratch) solve(match *[topology.SwitchPorts]int8) (size int, weight int64) {
	P := sc.n
	full := 1 << P
	cur, nxt := sc.dp[0], sc.dp[1]
	for mask := 0; mask < full; mask++ {
		cur[mask] = -1
	}
	cur[0] = 0
	for i := 0; i < P; i++ {
		w := sc.w[i*P : (i+1)*P]
		for mask := 0; mask < full; mask++ {
			nxt[mask] = cur[mask] // input i stays unmatched
			sc.par[i][mask] = -1
		}
		for mask := 0; mask < full; mask++ {
			base := cur[mask]
			if base < 0 {
				continue
			}
			for j := 0; j < P; j++ {
				if mask&(1<<j) != 0 || w[j] <= 0 {
					continue
				}
				if cand := base + int64(w[j]); cand > nxt[mask|1<<j] {
					nxt[mask|1<<j] = cand
					sc.par[i][mask|1<<j] = int8(j)
				}
			}
		}
		cur, nxt = nxt, cur
	}
	best := 0
	for mask := 1; mask < full; mask++ {
		if cur[mask] > cur[best] {
			best = mask
		}
	}
	weight = cur[best]
	*match = noMatch
	// Walk the decisions back: par[i][mask] is input i's choice at the
	// used-output mask AFTER processing i.
	mask := best
	for i := P - 1; i >= 0; i-- {
		j := sc.par[i][mask]
		if j < 0 || mask&(1<<int(j)) == 0 {
			// No output taken, or the stored choice does not fit the
			// trail (only on an unreachable state, which the walk never
			// visits).
			continue
		}
		match[j] = int8(i)
		size++
		mask &^= 1 << int(j)
	}
	return size, weight
}

// crossbar is the matcher state of one input-queued switch: the busy
// masks a pass derives its free ports from, the iSLIP pointers and the
// matching scratch.
type crossbar struct {
	// busyOut and busyIn are supersets of the outputs and inputs whose
	// busyUntil lies in the future: set when a pass forwards, cleared
	// lazily against the port's timestamp by voqFreePorts.  No event
	// clears them — a pass at byte-time t that runs ahead of the
	// completion event of t must already see the port free.
	busyOut, busyIn uint32

	islip   ISLIPState
	pending bool // a scheduling-pass event is already queued

	// match is the current pass's matching scratch (match[j] = input
	// feeding output j).  A field rather than a voqSched local so the
	// onMatch hook call cannot force it onto the heap — the zero-alloc
	// budget covers the hooks-nil fast path.
	match [topology.SwitchPorts]int8
}

// voqRule is the input-queued switch: virtual output queue (i, j, vl) is
// the subsequence of input i's VL-vl buffer bound for output j, and its
// head — the first such packet — may go whatever is in front of it.  One
// matcher decides per pass which input feeds each output of the switch,
// reading the request index's any-packet view; the output's arbitration
// table then picks the lane among the matched pair's heads.  Reading a
// head walks the buffer, which credit holds to bufferCapacity bytes;
// no per-(i, j, vl) storage is kept.
type voqRule struct{}

// kick and inputFreed fold every change at the switch into one crossbar
// pass: the whole switch is one scheduling point.
func (voqRule) kick(sh *shard, s, _ int)       { sh.kickVOQ(s) }
func (voqRule) inputFreed(sh *shard, s, _ int) { sh.kickVOQ(s) }

// observeDepth samples the virtual output queue the packet left.
func (voqRule) observeDepth(m *metrics.Metrics, in *inPort, p, vl int) {
	m.ObserveVOQDepth(int64(in.queues[vl].countFor(int8(p))))
}

// kickVOQ schedules a crossbar scheduling pass at an input-queued
// switch — if the pass could do anything.  Every kick follows the state
// change it announces and the pass it would post runs at this same
// byte-time, after deferred work that touches other switches only, so a
// kick that finds nothing to match stands for a pass that would find
// nothing either: one that changes no queue, pointer, cursor or arbiter
// and posts no event.  Under a fault schedule the pass is also what arms
// the wake-up at the end of a fault window, so there every kick posts.
func (sh *shard) kickVOQ(s int) {
	node := sh.n.switches[s]
	xb := node.xbar
	if xb.pending {
		return
	}
	if sh.n.Faults != nil || sh.voqCanMatch(node, sh.eng.Now()) {
		xb.pending = true
		sh.eng.DeferEvent(sh, sim.Event{Kind: evVOQSched, A: int32(s)})
	} else {
		sh.voqIdleKicks++
	}
}

// voqBuildColumn computes column j of the request matrix: the inputs
// whose group (i, j) holds at least one data head packet with downstream
// credit on its outgoing lane, under the occupancy view of output j's
// downstream buffer (see occView: nil for a host, which consumes at link
// rate, the boundary mirror for a cross-shard link).  This is the one
// place the request matrix is built from the buffers.
func (n *Network) voqBuildColumn(node *swNode, j, capacity int) uint32 {
	down := n.occView(&node.out[j])
	var col uint32
	for c := node.ix.dataCols()[j]; c != 0; c &= c - 1 {
		i := bits.TrailingZeros32(c)
		if down == nil {
			col |= 1 << i
			continue
		}
		for vls := node.ix.nonEmpty()[i*node.ix.r+j] & dataVLMask; vls != 0; vls &= vls - 1 {
			vl := bits.TrailingZeros16(vls)
			pkt := node.in[i].queues[vl].firstFor(int8(j))
			outvl := vl
			if n.planes > 1 {
				outvl = int(n.Routes.HopVL(node.id, pkt.Dst, pkt.Base))
			}
			if int(down[outvl])+pkt.Wire <= capacity {
				col |= 1 << i
				break
			}
		}
	}
	return col
}

// voqColumn returns req[j], rebuilding it first when it is not valid.
func (n *Network) voqColumn(node *swNode, j, capacity int) uint32 {
	x := &node.ix
	if x.reqValid&(1<<j) == 0 {
		x.req()[j] = n.voqBuildColumn(node, j, capacity)
		x.reqValid |= 1 << j
	}
	return x.req()[j]
}

// voqFreePorts returns the crossbar slots a scheduling pass at node may
// use at time now: the outputs that hold something, are idle and
// outside fault windows, and the inputs whose crossbar slot is free.
// The busy masks are brought up to date first, reading the timestamps
// of the ports still marked busy and of no other.  An output inside a
// fault window that ends gets a wake-up at the window's end.
func (sh *shard) voqFreePorts(node *swNode, now int64) (outFree, inFree uint32) {
	xb := node.xbar
	for w := xb.busyOut; w != 0; w &= w - 1 {
		if j := bits.TrailingZeros32(w); node.out[j].busyUntil <= now {
			xb.busyOut &^= 1 << j
		}
	}
	for w := xb.busyIn; w != 0; w &= w - 1 {
		if i := bits.TrailingZeros32(w); node.in[i].busyUntil <= now {
			xb.busyIn &^= 1 << i
		}
	}
	// Nothing is ever buffered toward an unwired port (checkIndex), so
	// the outputs that hold something are wired.
	outFree = sh.faultFree(node, (node.ix.mgmtOuts|node.ix.dataOuts)&^xb.busyOut, now)
	inFree = uint32(uint64(1)<<node.ix.r-1) &^ xb.busyIn
	return outFree, inFree
}

// voqCanMatch reports whether a scheduling pass at node would serve
// anything at time now: a free output with a VL 15 candidate, or with a
// data request from a free input.  A VL 15 transfer takes an input and
// an output away from the data phase, but then the answer is already
// yes; without one, the data phase sees exactly these masks.
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

// voqSched runs one crossbar scheduling pass at switch s: the VL 15
// stage first, then the request matrix is taken from the remembered
// columns (cols[j] = req[j] restricted to the free inputs), matched by
// iSLIP or the MWM oracle, and each matched pair's lane is picked by the
// output port's arbitration table.  Zero allocations: all scratch state
// is fixed-size on the stack, the shard and the switch.
func (sh *shard) voqSched(s int) {
	n := sh.n
	node := n.switches[s]
	x, xb := &node.ix, node.xbar
	now := sh.eng.Now()

	outFree, inFree := sh.voqFreePorts(node, now)
	if outFree == 0 || inFree == 0 {
		return
	}

	// Each free output serves its VL 15 candidate first, consuming the
	// input and output crossbar slots the transfer uses.
	for w := outFree & x.mgmtOuts; w != 0; w &= w - 1 {
		j := bits.TrailingZeros32(w)
		i := n.mgmtCandidate(node, j, x.mgmtCols()[j]&inFree, now)
		if i < 0 {
			continue
		}
		inFree &^= 1 << i
		outFree &^= 1 << j
		pkt := sh.take(node, i, j, arbtable.MgmtVL, now)
		xb.busyIn |= 1 << i
		xb.busyOut |= 1 << j
		sh.transmit(&node.out[j], pkt, switchCode(s, i), arbtable.MgmtVL)
	}

	// Request matrix over the data VLs, in column form: bit i of cols[j]
	// set = free input i holds a head with downstream credit for free
	// output j.
	capacity := n.bufferCapacity()
	var cols [topology.SwitchPorts]uint32
	var outs, requesters uint32
	for w := outFree & x.dataOuts; w != 0; w &= w - 1 {
		j := bits.TrailingZeros32(w)
		if c := n.voqColumn(node, j, capacity) & inFree; c != 0 {
			cols[j] = c
			outs |= 1 << j
			requesters |= c
		}
	}
	if outs == 0 {
		return
	}
	backlogged := bits.OnesCount32(requesters)

	match := &xb.match
	var size int
	if sc := sh.mwm; sc != nil {
		// The oracle's weight is the occupancy of the requested groups:
		// the packets input i buffers for output j across all VLs.
		clear(sc.w)
		for w := outs; w != 0; w &= w - 1 {
			j := bits.TrailingZeros32(w)
			for c := cols[j]; c != 0; c &= c - 1 {
				i := bits.TrailingZeros32(c)
				for vls := x.nonEmpty()[i*x.r+j]; vls != 0; vls &= vls - 1 {
					sc.w[i*sc.n+j] += int32(node.in[i].queues[bits.TrailingZeros16(vls)].countFor(int8(j)))
				}
			}
		}
		size, _ = sc.solve(match)
	} else {
		size = xb.islip.matchColumns(&cols, outs, n.islipIters, match)
	}
	if m := sh.metrics; m != nil {
		m.CountVOQPass(size, backlogged)
	}
	if n.onMatch != nil {
		n.onMatch(s, match, size)
	}

	// Only a requested output can be matched.
	for w := outs; w != 0; w &= w - 1 {
		j := bits.TrailingZeros32(w)
		if match[j] >= 0 {
			sh.voqServe(node, int(match[j]), j, now)
		}
	}
}

// voqServe transfers one packet of the matched pair (input i → output
// j): the pair's group heads are the candidates, so the output port's
// arbitration table picks the lane, preserving the table-driven QoS of
// the paper across the crossbar.
func (sh *shard) voqServe(node *swNode, i, j int, now int64) {
	vls := node.ix.nonEmpty()[i*node.ix.r+j] & dataVLMask
	var sets [arbtable.NumVLs]uint32
	for w := vls; w != 0; w &= w - 1 {
		sets[bits.TrailingZeros16(w)] = 1 << i
	}
	var o offer
	sh.n.dataCandidates(node, j, vls, sets[:], now, &o)
	if sh.serve(node, j, &o, now) {
		node.xbar.busyIn |= 1 << i
		node.xbar.busyOut |= 1 << j
	}
}
