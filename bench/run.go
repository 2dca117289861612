package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/topology"
)

// Workload parameters shared by every fabric workload.  They are the
// shardbench parameters, so the BENCH_PR7/9 rows stay comparable.
const (
	payloadBytes  = 512
	qosLoadFactor = 2   // admission attempts per host in the set-up fill
	fillGiveUp    = 40  // consecutive refusals that end a fill
	backgroundMb  = 600 // best-effort Mbps per host
	drainCapBT    = 20_000_000
)

type kind int

const (
	fabricKind kind = iota
	admitKind
	churnKind
)

// spec is one workload's fixed shape.  window is the simulated length
// of one timed window in byte-times (Admit calls on admit-k8), chosen
// so a window takes about 40 ms on the 2-core reference host; reps is how
// many untraced repetitions the suite runs (a k=32 repetition costs
// twice a k=8 one); why is the one line BENCHMARK.json gives for the
// workload's existence.
//
// gated says BENCHMARK.json lists the workload, so that later changes
// are accepted or refused on it.  That takes ten runs at ten seeds to
// agree within the bound on a shared host, which the two workloads left
// out cannot promise: wrr-k8-shards2 runs two barrier-coupled threads
// on a host that has two shared cores (it measured the host's scheduler,
// 42-47 % apart), and wrr-k32's 230 MB working set measures the
// neighbours' cache traffic (31-40 %).  The suite runs and compares all
// six; the sharded core also shows in wrr-k8's traced repetition.
type spec struct {
	name   string
	why    string
	kind   kind
	k      int
	model  fabric.SwitchModel
	shards int
	window int64
	reps   int
	gated  bool
	pair   string // the workload that differs only in its shard count
}

var specs = []spec{
	{name: "wrr-k8", kind: fabricKind, k: 8, window: 30_000, reps: 5, gated: true, pair: "wrr-k8-shards2",
		why: "k=8 fat-tree, the paper's WRR switch on one engine: fabric forward, arbiter pick and event dispatch do nearly all the work"},
	{name: "wrr-k8-shards2", kind: fabricKind, k: 8, shards: 2, window: 30_000, reps: 5, pair: "wrr-k8",
		why: "wrr-k8 with Shards=2 and nothing else changed: only the coordinator barrier and boundary credits are new work"},
	{name: "wrr-k32", kind: fabricKind, k: 32, window: 250, reps: 3,
		why: "k=32 fat-tree at full radix with a 200 MB heap: cache misses dominate and set-up time is visible; covers the injection ramp"},
	{name: "voq-islip-k8", kind: fabricKind, k: 8, model: fabric.ModelVOQISLIP, window: 15_000, reps: 5, gated: true,
		why: "wrr-k8 traffic through the input-queued iSLIP switch: VOQ scheduling passes dominate and the WRR scan is bypassed"},
	{name: "admit-k8", kind: admitKind, k: 8, window: 2_800, reps: 5, gated: true,
		why: "closed loop of Admit/Release calls on the k=8 control state near the 80% cap: fill-in, defragmentation and two-phase admission alone"},
	{name: "churn-inband-k8", kind: churnKind, k: 8, window: 180_000, reps: 5, gated: true,
		why: "Poisson connection churn with every table delta programmed in-band: MADs, control-lane events, busy hops and rollbacks dominate"},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// sizes fixes how much one repetition measures.  Real runs derive it
// from -seconds; tests shrink it.
type sizes struct {
	windows int     // timed windows
	scale   float64 // multiplies the spec's window length
	resetup int     // windows between two further set-ups, which only setup_s uses; 0 = none
}

// windowsPerSecond converts -seconds into a window count: windows are
// sized to take 40 ms on the reference host and 50 ms on one a fifth
// slower, and fixing the count (rather than stopping on a clock) keeps
// the simulated work, and so every count, identical across repetitions
// and commits.
const (
	windowsPerSecond = 20
	warmWindows      = 16 // untimed, before StartMeasurement
	checkEvery       = 4  // windows between two invariant checks (a check walks every queue of the fabric)
)

// sizesFor: besides the set-up it runs on, a repetition sets up once
// more per nominal second, between two windows, and throws the result
// away.  setup_s is the median of them all.  A set-up is 10-100 ms of
// allocation and page faults, whose cost on a shared host moves by a
// quarter from one second to the next; 25 set-ups back to back sample
// one such moment (two sets of ten such runs read 14-24 % apart), 25
// spread over the run sample them all.
func sizesFor(seconds int) sizes {
	return sizes{windows: windowsPerSecond * seconds, scale: 1, resetup: windowsPerSecond}
}

// runner is one set-up workload instance.  Only step is timed.
type runner interface {
	step() float64    // one window of work; returns the work units it completed
	beginTimed()      // StartMeasurement and counter baselines
	check(p *pass)    // invariant check between windows, untimed
	endTimed(p *pass) // counts over the timed windows
	finish(p *pass)   // stop the load, drain under the cap, end-of-run checks
}

// pass is what one set-up + warm-up + timed windows + drain measured.
type pass struct {
	setupS   []float64 // host seconds of each set-up
	windowS  []float64 // host seconds of each timed window
	work     []float64 // work units each timed window completed
	heapMB   float64
	counts   map[string]float64 // by per-layer metric name
	accepted float64            // accept_ratio numerator and denominator
	offered  float64

	attempted int64
	failed    int64
	failures  []string
}

func (p *pass) fail(n int64, format string, args ...any) {
	p.failed += n
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// verify counts one invariant check and records it when it failed.
func (p *pass) verify(what string, err error) {
	p.attempted++
	if err != nil {
		p.fail(1, "%s: %v", what, err)
	}
}

func (p *pass) timedSeconds() float64 {
	t := 0.0
	for _, w := range p.windowS {
		t += w
	}
	return t
}

// workPerSecond is the end-to-end rate: the 90th percentile over the
// timed windows of work completed per host second, so the rate the
// program reaches in the tenth of the run the host disturbed least.
// Each window is divided by its own work, so windows that differ (the
// k=32 ramp, Poisson arrivals) compare.  The host is shared: neighbours
// slow it by 15-40 % for seconds to minutes at a time, and the median
// window follows them (ten runs of one program read 9-14 % apart by
// their medians, 4-7 % by this; with three processes made to compete
// for the two cores the median fell 7 %, the mean 17 % and this 1 %).
// It needs many short windows and a run longer than a slow phase, which
// is why a window is 40 ms and BENCHMARK.json asks for 25 s.
const rateQuantile = 0.9

func (p *pass) workPerSecond() float64 {
	rates := make([]float64, len(p.work))
	for i, w := range p.work {
		rates[i] = w / p.windowS[i]
	}
	sort.Float64s(rates)
	return quantile(rates, rateQuantile)
}

func setup(s spec, seed int64, sz sizes, tr *tracer, traced bool) (runner, error) {
	window := int64(float64(s.window) * sz.scale)
	if window < 1 {
		window = 1
	}
	switch s.kind {
	case admitKind:
		return setupAdmit(s, seed, window, tr, traced)
	case churnKind:
		return setupChurn(s, seed, window, tr, traced)
	default:
		return setupFabric(s, seed, window, tr, traced)
	}
}

// timedSetup sets the workload up and records how long that took.  It
// collects garbage first and afterwards, so that neither an earlier
// network is this set-up's garbage nor this set-up's the next window's.
func (p *pass) timedSetup(s spec, seed int64, sz sizes, tr *tracer, traced bool) (runner, error) {
	runtime.GC()
	id := tr.begin("setup")
	t0 := time.Now()
	r, err := setup(s, seed, sz, tr, traced)
	p.setupS = append(p.setupS, time.Since(t0).Seconds())
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", s.name, err)
	}
	runtime.GC()
	return r, nil
}

// runPass executes one repetition's measured part.  With tracing off
// nothing observes the program: no metrics, no hooks, no spans.
func runPass(s spec, seed int64, sz sizes, tr *tracer, traced bool) (*pass, error) {
	p := &pass{counts: map[string]float64{}}
	r, err := p.timedSetup(s, seed, sz, tr, traced)
	if err != nil {
		return nil, err
	}

	id := tr.begin("warm-up")
	for i := 0; i < warmWindows; i++ {
		r.step()
	}
	tr.end(id)
	r.beginTimed()
	for i := 0; i < sz.windows; i++ {
		id := tr.begin("window")
		t0 := time.Now()
		work := r.step()
		p.windowS = append(p.windowS, time.Since(t0).Seconds())
		p.work = append(p.work, work)
		tr.end(id)
		if (i+1)%checkEvery == 0 || i == sz.windows-1 {
			r.check(p)
		}
		if sz.resetup > 0 && (i+1)%sz.resetup == 0 {
			if _, err := p.timedSetup(s, seed, sz, tr, traced); err != nil {
				return nil, err
			}
		}
	}
	r.endTimed(p)

	id = tr.begin("heap")
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapMB = float64(ms.HeapAlloc) / 1e6
	tr.end(id)

	id = tr.begin("drain+checks")
	r.finish(p)
	tr.end(id)
	runtime.KeepAlive(r)
	return p, nil
}

// forEachPortTable visits every output-port table of a fabric.
func forEachPortTable(ports *admission.Ports, fn func(*core.PortTable)) {
	for _, pt := range ports.Host {
		fn(pt)
	}
	for _, row := range ports.Switch {
		for _, pt := range row {
			fn(pt)
		}
	}
}

// tableMoves sums the sequences defragmentation has relocated so far
// over every port: the table-update cost of the release discipline.
func tableMoves(adm *admission.Controller) int {
	moves := 0
	forEachPortTable(adm.Ports(), func(tb *core.PortTable) { moves += tb.Allocator().TotalMoves() })
	return moves
}

// checkTables runs the end-of-run table checks every workload shares:
// allocator invariants, the paper's distance guarantee (max gap <=
// stride for every live sequence), and active == shadow on every port
// no program is in flight for.  It returns how many ports still have a
// program open or pending.
func checkTables(p *pass, adm *admission.Controller) (open int) {
	p.verify("allocator invariants", adm.CheckInvariants())
	var gapErr, syncErr error
	forEachPortTable(adm.Ports(), func(tb *core.PortTable) {
		shadow := tb.Allocator().Table()
		for _, s := range tb.Allocator().Sequences() {
			if g := shadow.MaxGap(s.VL); g > s.Stride && gapErr == nil {
				gapErr = fmt.Errorf("VL %d max gap %d exceeds stride %d", s.VL, g, s.Stride)
			}
		}
		if tb.Programming() || tb.Dirty() {
			open++
		} else if tb.Active().High != shadow.High && syncErr == nil {
			syncErr = fmt.Errorf("idle port has active != shadow")
		}
	})
	p.verify("distance guarantee", gapErr)
	p.verify("active == shadow on idle ports", syncErr)
	return open
}

func fatTree(k int, tr *tracer) (*topology.Topology, error) {
	id := tr.begin("topology.Generate")
	defer tr.end(id)
	return topology.Spec{Class: topology.FatTree, K: k}.Generate()
}
