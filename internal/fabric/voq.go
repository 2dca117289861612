package fabric

import (
	"fmt"
	"math/bits"

	"repro/internal/arbtable"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
)

// This file is the input-queued switch model: per-input virtual output
// queues (one per output port × VL, an index over the input VL
// buffers), a crossbar scheduled per pass by an iSLIP arbiter with
// per-port round-robin grant/accept pointers, and an exact
// maximum-weight-matching reference arbiter that doubles as the
// correctness oracle in tests and is selectable at runtime for small
// fabrics.  The output-port arbitration tables keep their paper role
// unchanged: the matching decides WHICH input feeds an output, the
// output's WRR table decides which VL of that pair's VOQ group is
// served — so the fill-in algorithm's distance guarantee can be
// audited under head-of-line dynamics (the -exp hol experiment).
//
// Where this diverges from the xbar_router exemplar (SNIPPETS.md
// Snippet 1): packets are buffered per (input, VL) rather than per
// input, each tagged with its output as there, and scheduled per
// (input, output, VL) through occupancy words; scheduling is
// event-driven on packet boundaries instead of a fixed Advance()
// clock, grants respect downstream per-VL credits, and the iSLIP
// pointers update only on accepted first-iteration grants (the
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

// Request columns, grant words and the VOQ occupancy words are uint32
// sets with one bit per port.
const _ = uint(32 - topology.SwitchPorts)

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

// voqState is the input-queued half of one switch, sized at the
// topology's radix r: occupancy words at three grains over the virtual
// output queues so a scheduling pass touches only what is queued, the
// request matrix a pass matches on — remembered between passes, column
// by column — and the iSLIP pointer state.
//
// The packets themselves stay in the input VL buffers the WRR model
// uses (inPort.queues), each recording its output port (Packet.out).
// Virtual output queue (i, j, vl) is the subsequence of input i's VL-vl
// buffer bound for output j, in arrival order; its head is the first
// such packet.  Reading a head walks the buffer, which credit holds to
// bufferCapacity bytes: bufferPackets packets of the configured size,
// more only when smaller packets are injected.  No per-(i, j, vl)
// storage is kept.
//
// The occupancy words are written in exactly two places, voqPush and
// voqPop; CheckBuffers recomputes every derived word below from the
// buffers, the credit view and the port timestamps (checkVOQ).
type voqState struct {
	r int
	// nonEmpty[i*r+j] is the set of VLs whose buffer at input i holds a
	// packet bound for output j.
	nonEmpty []uint16
	// dataCols[j] is the set of inputs i holding a data-VL packet for
	// output j — column j of the widest request matrix a pass could
	// build; mgmtCols[j] is the set of inputs holding a VL 15 packet for
	// output j.  dataOuts and mgmtOuts are the outputs whose word is not
	// zero, so a pass visits only outputs that hold something.
	dataCols, mgmtCols []uint32
	dataOuts, mgmtOuts uint32

	// req[j] is column j of the request matrix before input availability
	// is applied: the inputs whose group (i, j) holds a data head with
	// downstream credit (voqEligible).  It is meaningful only while bit
	// j of reqValid is set; the bit is cleared wherever the column can
	// change — voqPush of the first data packet for output j into a
	// buffer, voqPop from column j (which precedes every transmit on j,
	// so the credit the transmit consumes is covered) and a credit
	// return to output j (creditSwitch) — and voqColumn recomputes an
	// invalid column the next time a pass or a kick asks for it.
	req      []uint32
	reqValid uint32

	// busyOut and busyIn are supersets of the outputs and inputs whose
	// busyUntil lies in the future: set at transmit, cleared lazily
	// against the port's timestamp by voqFreePorts.  No event clears
	// them — a pass at byte-time t that runs ahead of the completion
	// event of t must already see the port free.
	busyOut, busyIn uint32

	islip   ISLIPState
	pending bool // a scheduling-pass event is already queued

	// match is the current pass's matching scratch (match[j] = input
	// feeding output j).  A field rather than a voqSched local so the
	// OnMatch hook call cannot force it onto the heap — the zero-alloc
	// budget covers the hooks-nil fast path.
	match [topology.SwitchPorts]int8
}

// newVOQStates returns the VOQ state of n r-port switches, their words
// carved from two per-network slabs.
func newVOQStates(n, r int) []voqState {
	vs := make([]voqState, n)
	nonEmpty := make([]uint16, n*r*r)
	cols := make([]uint32, 3*n*r)
	for i := range vs {
		vs[i] = voqState{
			r:        r,
			nonEmpty: carve(&nonEmpty, r*r),
			dataCols: carve(&cols, r),
			mgmtCols: carve(&cols, r),
			req:      carve(&cols, r),
		}
	}
	return vs
}

// voqHead returns the head of VOQ (i, j, vl): the first packet in input
// i's VL-vl buffer bound for output j, nil when there is none.
func (node *swNode) voqHead(i, j, vl int) *Packet {
	return node.in[i].queues[vl].firstFor(uint8(j))
}

// voqPush buffers pkt, bound for output j, at input i on VL vl and
// maintains the occupancy words.  Only the first packet for j in the
// buffer becomes a VOQ head, so only that can change column j of the
// request matrix.
func (node *swNode) voqPush(i, j, vl int, pkt *Packet) {
	v := node.voq
	pkt.out = uint8(j)
	node.in[i].queues[vl].push(pkt)
	ne := &v.nonEmpty[i*v.r+j]
	if *ne&(1<<vl) != 0 {
		return
	}
	*ne |= 1 << vl
	if vl == arbtable.MgmtVL {
		v.mgmtCols[j] |= 1 << i
		v.mgmtOuts |= 1 << j
	} else {
		v.dataCols[j] |= 1 << i
		v.dataOuts |= 1 << j
		v.reqValid &^= 1 << j
	}
}

// voqPop unlinks the head of VOQ (i, j, vl) from input i's VL-vl
// buffer.  The head of column j changes and the transmit that follows
// consumes output j's downstream credit, so the remembered column is
// dropped; the occupancy bits go when the last packet for j leaves the
// buffer.
func (node *swNode) voqPop(i, j, vl int) *Packet {
	v := node.voq
	q := &node.in[i].queues[vl]
	pkt := q.unlinkFirst(uint8(j))
	v.reqValid &^= 1 << j
	if q.firstFor(uint8(j)) == nil {
		ne := &v.nonEmpty[i*v.r+j]
		*ne &^= 1 << vl
		if vl == arbtable.MgmtVL {
			if v.mgmtCols[j] &^= 1 << i; v.mgmtCols[j] == 0 {
				v.mgmtOuts &^= 1 << j
			}
		} else if *ne&dataVLMask == 0 {
			if v.dataCols[j] &^= 1 << i; v.dataCols[j] == 0 {
				v.dataOuts &^= 1 << j
			}
		}
	}
	return pkt
}

// voqOccupancy counts the packets input i buffers for output j across
// all VLs — the weight the MWM oracle maximizes.
func (node *swNode) voqOccupancy(i, j int) int32 {
	var n int32
	for vls := node.voq.nonEmpty[i*node.voq.r+j]; vls != 0; vls &= vls - 1 {
		n += int32(node.in[i].queues[bits.TrailingZeros16(vls)].countFor(uint8(j)))
	}
	return n
}

// kickVOQ schedules a crossbar scheduling pass at an input-queued
// switch (the whole switch is one scheduling point, unlike the WRR
// model's independent output ports) — if the pass could do anything.
// Every kick follows the state change it announces and the pass it
// would post runs at this same byte-time, after deferred work that
// touches other switches only, so a kick that finds nothing to match
// stands for a pass that would find nothing either: one that changes no
// queue, pointer, cursor or arbiter and posts no event.  Under a fault
// schedule the pass is also what arms the wake-up at the end of a fault
// window, so there every kick posts.
func (sh *shard) kickVOQ(s int) {
	node := sh.n.switches[s]
	v := node.voq
	if v.pending {
		return
	}
	if sh.n.Faults != nil || sh.voqCanMatch(node, sh.eng.Now()) {
		v.pending = true
		sh.eng.DeferEvent(sh, sim.Event{Kind: evVOQSched, A: int32(s)})
	} else {
		sh.voqIdleKicks++
	}
}

// voqEnqueue lands an arriving packet in its input VL buffer and its
// virtual output queue: the output port is resolved from the routing
// tables at enqueue time, so a packet can never block a packet bound
// for a different output — the HOL-blocking remedy VOQs exist for.
func (sh *shard) voqEnqueue(s, in int, pkt *Packet) {
	n := sh.n
	j := n.Routes.NextPort(s, pkt.Dst)
	n.switches[s].voqPush(in, j, int(pkt.VL), pkt)
	sh.kickVOQ(s)
}

// voqEligible reports whether VOQ group (i, j) holds at least one data
// head packet with downstream credit on its outgoing lane.  down is the
// occupancy view of output j's downstream buffer (see occView): nil for
// a host, the boundary mirror for a cross-shard link.
func (n *Network) voqEligible(node *swNode, down *[arbtable.NumVLs]int32, i, j, capacity int) bool {
	v := node.voq
	vls := v.nonEmpty[i*v.r+j] & dataVLMask
	if vls == 0 {
		return false
	}
	if down == nil {
		return true // host downstream: consumes at link rate
	}
	for ; vls != 0; vls &= vls - 1 {
		vl := bits.TrailingZeros16(vls)
		pkt := node.voqHead(i, j, vl)
		outvl := vl
		if n.planes > 1 {
			outvl = int(n.Routes.HopVL(node.id, pkt.Dst, pkt.Base))
		}
		if int(down[outvl])+pkt.Wire <= capacity {
			return true
		}
	}
	return false
}

// voqBuildColumn computes column j of the request matrix from the heads
// of the groups queued toward output j and the downstream credit view.
// This is the one place the request matrix is built from the queues.
func (n *Network) voqBuildColumn(node *swNode, j, capacity int) uint32 {
	down := n.occView(&node.out[j])
	var col uint32
	for c := node.voq.dataCols[j]; c != 0; c &= c - 1 {
		i := bits.TrailingZeros32(c)
		if n.voqEligible(node, down, i, j, capacity) {
			col |= 1 << i
		}
	}
	return col
}

// voqColumn returns req[j], rebuilding it first when it is not valid.
func (n *Network) voqColumn(node *swNode, j, capacity int) uint32 {
	v := node.voq
	if v.reqValid&(1<<j) == 0 {
		v.req[j] = n.voqBuildColumn(node, j, capacity)
		v.reqValid |= 1 << j
	}
	return v.req[j]
}

// voqFreePorts returns the crossbar slots a scheduling pass at node may
// use at time now: the outputs that hold something, are idle and
// outside fault windows, and the inputs whose crossbar slot is free.
// The busy masks are brought up to date first, reading the timestamps
// of the ports still marked busy and of no other.  An output inside a
// fault window that ends gets a wake-up at the window's end.
func (sh *shard) voqFreePorts(node *swNode, now int64) (outFree, inFree uint32) {
	v := node.voq
	for w := v.busyOut; w != 0; w &= w - 1 {
		if j := bits.TrailingZeros32(w); node.out[j].busyUntil <= now {
			v.busyOut &^= 1 << j
		}
	}
	for w := v.busyIn; w != 0; w &= w - 1 {
		if i := bits.TrailingZeros32(w); node.in[i].busyUntil <= now {
			v.busyIn &^= 1 << i
		}
	}
	// Nothing is ever queued toward an unwired port (checkVOQ), so the
	// outputs that hold something are wired.
	outFree = sh.faultFree(node, (v.mgmtOuts|v.dataOuts)&^v.busyOut, now)
	inFree = uint32(uint64(1)<<v.r-1) &^ v.busyIn
	return outFree, inFree
}

// voqCanMatch reports whether a scheduling pass at node would serve
// anything at time now: a free output with a VL 15 candidate, or with a
// data request from a free input.  A VL 15 transfer takes an input and
// an output away from the data phase, but then the answer is already
// yes; without one, the data phase sees exactly these masks.
func (sh *shard) voqCanMatch(node *swNode, now int64) bool {
	n := sh.n
	v := node.voq
	outFree, inFree := sh.voqFreePorts(node, now)
	if outFree == 0 || inFree == 0 {
		return false
	}
	capacity := n.bufferCapacity()
	for w := outFree & v.mgmtOuts; w != 0; w &= w - 1 {
		if n.voqMgmtCandidate(node, bits.TrailingZeros32(w), inFree, capacity) >= 0 {
			return true
		}
	}
	for w := outFree & v.dataOuts; w != 0; w &= w - 1 {
		if n.voqColumn(node, bits.TrailingZeros32(w), capacity)&inFree != 0 {
			return true
		}
	}
	return false
}

// voqMgmtCandidate returns the input whose VL 15 head free output j of
// node serves next — the first free input in round-robin order from the
// port's cursor whose head has downstream credit — or -1.
func (n *Network) voqMgmtCandidate(node *swNode, j int, inFree uint32, capacity int) int {
	const vl = arbtable.MgmtVL
	v := node.voq
	set := v.mgmtCols[j] & inFree
	if set == 0 {
		return -1
	}
	out := &node.out[j]
	down := n.occView(out)
	for _, w := range cyclicFrom(set, int(out.rr[vl])) {
		for ; w != 0; w &= w - 1 {
			i := bits.TrailingZeros32(w)
			if down == nil || int(down[vl])+node.voqHead(i, j, vl).Wire <= capacity {
				return i
			}
		}
	}
	return -1
}

// voqSched runs one crossbar scheduling pass at switch s: subnet
// management preempts, then the request matrix is taken from the
// remembered columns (cols[j] = req[j] restricted to the free inputs),
// matched by iSLIP or the MWM oracle, and each matched pair's lane is
// picked by the output port's arbitration table.  Zero allocations: all
// scratch state is fixed-size on the stack, the shard and the switch.
func (sh *shard) voqSched(s int) {
	n := sh.n
	node := n.switches[s]
	v := node.voq
	now := sh.eng.Now()
	capacity := n.bufferCapacity()

	outFree, inFree := sh.voqFreePorts(node, now)
	if outFree == 0 || inFree == 0 {
		return
	}

	// Subnet management (VL 15) preempts all data lanes: each free
	// output serves its first eligible VL 15 head in round-robin input
	// order, consuming the input and output crossbar slots it uses.
	for w := outFree & v.mgmtOuts; w != 0; w &= w - 1 {
		j := bits.TrailingZeros32(w)
		i := n.voqMgmtCandidate(node, j, inFree, capacity)
		if i < 0 {
			continue
		}
		pkt := node.voqPop(i, j, arbtable.MgmtVL)
		node.out[j].rr[arbtable.MgmtVL] = uint8((i + 1) % v.r)
		inFree &^= 1 << i
		outFree &^= 1 << j
		sh.voqTransmit(node, pkt, i, j, arbtable.MgmtVL, now)
	}

	// Request matrix over the data VLs, in column form: bit i of cols[j]
	// set = free input i holds a head with downstream credit for free
	// output j.
	var cols [topology.SwitchPorts]uint32
	var outs, requesters uint32
	for w := outFree & v.dataOuts; w != 0; w &= w - 1 {
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

	match := &v.match
	var size int
	if n.model == ModelVOQMWM {
		sc := sh.mwm
		clear(sc.w)
		for w := outs; w != 0; w &= w - 1 {
			j := bits.TrailingZeros32(w)
			for c := cols[j]; c != 0; c &= c - 1 {
				i := bits.TrailingZeros32(c)
				sc.w[i*sc.n+j] = node.voqOccupancy(i, j)
			}
		}
		size, _ = sc.solve(match)
	} else {
		size = v.islip.matchColumns(&cols, outs, n.islipIters, match)
	}
	if m := sh.metrics; m != nil {
		m.CountVOQPass(size, backlogged)
	}
	if n.OnMatch != nil {
		n.OnMatch(s, match, size)
	}

	// Only a requested output can be matched.
	for w := outs; w != 0; w &= w - 1 {
		j := bits.TrailingZeros32(w)
		if match[j] >= 0 {
			sh.voqServe(node, int(match[j]), j, capacity, now)
		}
	}
}

// voqServe transfers one packet of the matched pair (input i → output
// j): the output port's arbitration table picks the lane among the
// pair's eligible VOQ heads, preserving the table-driven QoS of the
// paper across the crossbar.
func (sh *shard) voqServe(node *swNode, i, j, capacity int, now int64) {
	n := sh.n
	v := node.voq
	out := &node.out[j]
	down := n.occView(out)

	// Candidates indexed by outgoing wire VL, exactly like the WRR
	// model's trySwitch: multi-plane engines may shift a packet into
	// its escape plane here.
	var ready arbtable.Ready
	var srcVL [arbtable.NumDataVLs]uint8
	for vls := v.nonEmpty[i*v.r+j] & dataVLMask; vls != 0; vls &= vls - 1 {
		vl := bits.TrailingZeros16(vls)
		pkt := node.voqHead(i, j, vl)
		outvl := vl
		if n.planes > 1 {
			outvl = int(n.Routes.HopVL(node.id, pkt.Dst, pkt.Base))
			if ready[outvl] != 0 {
				continue // lane claimed by an earlier input VL
			}
		}
		if down != nil && int(down[outvl])+pkt.Wire > capacity {
			continue
		}
		ready[outvl] = pkt.Wire
		srcVL[outvl] = uint8(vl)
	}
	vl, _, ok := out.arb.Pick(&ready)
	if !ok {
		return // defensive: the request phase guaranteed a candidate
	}
	if out.pt.Programming() {
		out.pt.NoteStalePick()
	}
	invl := int(srcVL[vl])
	pkt := node.voqPop(i, j, invl)
	pkt.VL = uint8(vl)
	if m := sh.metrics; m != nil {
		m.AddVLBytes(vl, pkt.Wire)
		m.ObserveVOQDepth(int64(node.in[i].queues[invl].countFor(uint8(j))))
	}
	if t := sh.eng.Trace; t != nil {
		lp := out.arb.Last()
		t.Record(metrics.TraceEvent{
			Time: now, Port: n.switchTraceID(node.id, j), VL: uint8(vl),
			High: lp.High, Entry: int16(lp.Entry), WeightLeft: lp.Residual,
		})
	}
	if n.OnVOQDequeue != nil {
		n.OnVOQDequeue(node.id, i, j, invl)
	}
	if n.OnForward != nil {
		n.OnForward(pkt, node.id, j)
	}
	sh.voqTransmit(node, pkt, i, j, invl, now)
}

// voqTransmit occupies input i's crossbar slot for the transfer, marks
// both ports busy and hands the packet to the shared transmit path
// (which reserves downstream credit on pkt.VL and returns the source
// credit on srcVL at completion, exactly as the WRR model does).
func (sh *shard) voqTransmit(node *swNode, pkt *Packet, i, j, srcVL int, now int64) {
	in := &node.in[i]
	xfer := int64(pkt.Wire) / int64(sh.n.Cfg.CrossbarSpeedup)
	if xfer < 1 {
		xfer = 1
	}
	in.busyUntil = now + xfer
	node.voq.busyIn |= 1 << i
	node.voq.busyOut |= 1 << j
	sh.eng.Post(now+xfer, sh, sim.Event{Kind: evInputFree, A: int32(node.id), B: int32(i)})
	sh.transmit(&node.out[j], pkt, switchCode(node.id, i), uint8(srcVL))
}

// checkVOQ audits everything a scheduling pass at one input-queued
// switch reads instead of scanning, against a full scan: every buffered
// packet's recorded output against the routing tables, the occupancy
// words recomputed from the buffers (no stale bit, no missing bit,
// nothing buffered toward an unwired output), every remembered request
// column against a fresh computation from the heads and the current
// credit view, and the busy masks against the port timestamps.
func (n *Network) checkVOQ(node *swNode) error {
	v := node.voq
	var dataCols, mgmtCols [topology.SwitchPorts]uint32
	var dataOuts, mgmtOuts uint32
	for i := 0; i < v.r; i++ {
		var row [topology.SwitchPorts]uint16 // row[j]: VLs buffering a packet for j
		for vl := range node.in[i].queues {
			q := &node.in[i].queues[vl]
			for pkt := q.front(); pkt != nil; pkt = q.after(pkt) {
				j := int(pkt.out)
				if route := n.Routes.NextPort(node.id, pkt.Dst); j != route {
					return fmt.Errorf("fabric: switch %d input %d VL %d buffers a packet to host %d for output %d, routes say %d",
						node.id, i, vl, pkt.Dst, j, route)
				}
				if j >= v.r || !node.out[j].wired {
					return fmt.Errorf("fabric: switch %d input %d VL %d buffers a packet toward unwired port %d",
						node.id, i, vl, j)
				}
				row[j] |= 1 << vl
			}
		}
		for j, vls := range row[:v.r] {
			if got := v.nonEmpty[i*v.r+j]; got != vls {
				return fmt.Errorf("fabric: switch %d VOQ (%d,%d) non-empty VL set %#04x, buffers say %#04x",
					node.id, i, j, got, vls)
			}
			if vls&dataVLMask != 0 {
				dataCols[j] |= 1 << i
				dataOuts |= 1 << j
			}
			if vls&^dataVLMask != 0 {
				mgmtCols[j] |= 1 << i
				mgmtOuts |= 1 << j
			}
		}
	}
	if v.dataOuts != dataOuts || v.mgmtOuts != mgmtOuts {
		return fmt.Errorf("fabric: switch %d output summaries data %#08x VL 15 %#08x, buffers say %#08x and %#08x",
			node.id, v.dataOuts, v.mgmtOuts, dataOuts, mgmtOuts)
	}
	if v.reqValid>>v.r != 0 {
		return fmt.Errorf("fabric: switch %d marks request columns %#08x valid beyond radix %d", node.id, v.reqValid, v.r)
	}
	now := n.shardForSwitch(node.id).eng.Now()
	capacity := n.bufferCapacity()
	for j := 0; j < v.r; j++ {
		if v.dataCols[j] != dataCols[j] {
			return fmt.Errorf("fabric: switch %d output %d data input set %#08x, buffers say %#08x",
				node.id, j, v.dataCols[j], dataCols[j])
		}
		if v.mgmtCols[j] != mgmtCols[j] {
			return fmt.Errorf("fabric: switch %d output %d VL 15 input set %#08x, buffers say %#08x",
				node.id, j, v.mgmtCols[j], mgmtCols[j])
		}
		if v.reqValid&(1<<j) != 0 {
			if col := n.voqBuildColumn(node, j, capacity); v.req[j] != col {
				return fmt.Errorf("fabric: switch %d output %d remembers request column %#08x, heads and credit say %#08x",
					node.id, j, v.req[j], col)
			}
		}
		if node.out[j].busyUntil > now && v.busyOut&(1<<j) == 0 {
			return fmt.Errorf("fabric: switch %d output %d transmits until %d (now %d) but is not marked busy",
				node.id, j, node.out[j].busyUntil, now)
		}
		if node.in[j].busyUntil > now && v.busyIn&(1<<j) == 0 {
			return fmt.Errorf("fabric: switch %d input %d holds its crossbar slot until %d (now %d) but is not marked busy",
				node.id, j, node.in[j].busyUntil, now)
		}
	}
	return nil
}
