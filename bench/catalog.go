package main

// The catalogue is the single list of what this benchmark reports; the
// workloads it runs are the specs in run.go.  BENCHMARK.json and the
// README tables repeat both for readers that cannot run Go; a test keeps
// the three identical.

// metricDef describes one reported number.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"; for a count, the direction less work or more service lies in
	// Bound and SameSeed are an end-to-end metric's regression bounds,
	// each the share of the parent's median it may worsen by.  Bound is
	// the one BENCHMARK.json fixes: it judges runs at seeds that differ
	// on a host whose spread has been three times the reference host's,
	// so on the two timings it is the 25 % ceiling, at least three times
	// the widest spread seen over ten seeds on a gated workload.
	// SameSeed is what -compare and -selfcheck hold two result sets of
	// one seed to, where the seeds' own spread is absent: on the two
	// timings, one and a half times and twice the median spread between
	// repetitions of one seed (README, "Run-to-run spread").  Heap and the accept ratio repeat
	// for a seed and barely move between seeds on the gated workloads,
	// so theirs are what a change may cost, not noise margins;
	// SameSeedOn holds a workload's own value.
	Bound      float64
	SameSeed   float64
	SameSeedOn map[string]float64
	// Kind says how a per-layer number is obtained: "probe" is a timed
	// loop over the layer's exported calls (minimum of a few runs),
	// "span" is driver-side span time, "count" repeats exactly for a
	// seed, "derived" divides a count by the untraced wall time.
	Kind string
	// Moves lists the end-to-end metric and workload a change to this
	// number should move, as "metric@workload"; everything else is
	// predicted unchanged.  "none" marks numbers tracked for their own
	// sake.
	Moves []string
	Doc   string
}

const (
	mSetup  = "setup_s"
	mWork   = "work_per_s"
	mHeap   = "live_heap_mb"
	mAccept = "accept_ratio"
)

// boundOn returns the bound a comparison on one workload is held to.
func (m metricDef) boundOn(workload string, sameSeed bool) float64 {
	if !sameSeed {
		return m.Bound
	}
	if b, ok := m.SameSeedOn[workload]; ok {
		return b
	}
	return m.SameSeed
}

var endToEnd = []metricDef{
	{Name: mSetup, Unit: "s", Better: "lower", Bound: 0.25, SameSeed: 0.20,
		Doc: "host seconds from topology spec to a started network (Generate, NewWithTopology or BuildControl, cdg.Verify on k=8, admission fill, Start); median of the run's set-ups, the one it runs on and one more after every 20th window"},
	{Name: mWork, Unit: "1/s", Better: "higher", Bound: 0.25, SameSeed: 0.12,
		Doc: "work completed per host second, 90th percentile over the timed windows of (work in the window / host time of the window); work is packets delivered on the four packet workloads, Admit+Release calls on admit-k8, connection lifecycles offered on churn-inband-k8"},
	{Name: mHeap, Unit: "MB", Better: "lower", Bound: 0.05, SameSeed: 0.05,
		Doc: "HeapAlloc/1e6 after a forced GC at the end of the timed windows, network still reachable"},
	{Name: mAccept, Unit: "ratio", Better: "higher", Bound: 0.06, SameSeed: 0,
		SameSeedOn: map[string]float64{"churn-inband-k8": 0.005},
		Doc:        "connections admitted / offered: the set-up fill on fabric workloads, the timed loop on admit-k8, every resolved lifecycle on churn-inband-k8"},
}

var perLayer = []metricDef{
	{Name: "topology.generate_s", Unit: "s", Better: "lower", Kind: "span", Moves: []string{"setup_s@wrr-k32"},
		Doc: "Spec.Generate for the workload's own fabric"},
	{Name: "topology.partition_s", Unit: "s", Better: "lower", Kind: "probe", Moves: []string{"setup_s@wrr-k8-shards2"},
		Doc: "PartitionFabric of the workload's fabric into 2 shards"},
	{Name: "routing.compute_s", Unit: "s", Better: "lower", Kind: "probe", Moves: []string{"setup_s@wrr-k32"},
		Doc: "routing.ComputeFor on the workload's fabric"},
	{Name: "routing.cdg_verify_s", Unit: "s", Better: "lower", Kind: "probe", Moves: []string{"setup_s@wrr-k8"},
		Doc: "cdg.Verify on a k=16 fat-tree"},
	{Name: "routing.pathhops_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: []string{"work_per_s@admit-k8"},
		Doc: "Routes.PathHops between random host pairs of a k=8 fat-tree"},

	{Name: "core.reserve_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: []string{"work_per_s@admit-k8"},
		Doc: "PortTable.Reserve on one table held near 75% full"},
	{Name: "core.release_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: []string{"work_per_s@admit-k8"},
		Doc: "PortTable.Release (defragmenting) on the same table"},
	{Name: "core.defragment_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: []string{"work_per_s@admit-k8"},
		Doc: "Allocator.Defragment on the same table"},
	{Name: "core.defrag_moves_per_release", Unit: "ratio", Better: "lower", Kind: "count", Moves: []string{"work_per_s@admit-k8", "work_per_s@churn-inband-k8"},
		Doc: "sequences relocated by defragmentation per connection released (waste ratio; each move is table bytes to reprogram)"},
	{Name: "core.free_but_rejected", Unit: "count", Better: "lower", Kind: "count", Moves: []string{"accept_ratio@admit-k8"},
		Doc: "refusals at a hop whose table had at least as many free slots as the request needed; the paper's theorem says 0"},

	{Name: "arbtable.pick_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: []string{"work_per_s@wrr-k8", "work_per_s@wrr-k32"},
		Doc: "Arbiter.Pick on a loaded table"},
	{Name: "arbtable.stall_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: []string{"work_per_s@wrr-k8", "work_per_s@wrr-k32"},
		Doc: "Arbiter.Pick on the same table with nothing ready: a full scan of both tables"},
	{Name: "arbtable.picks", Unit: "count", Better: "lower", Kind: "count", Moves: []string{"work_per_s@wrr-k8", "work_per_s@wrr-k32"},
		Doc: "arbiter picks in the timed windows"},
	{Name: "arbtable.entries_per_pick", Unit: "ratio", Better: "lower", Kind: "count", Moves: []string{"work_per_s@wrr-k8", "work_per_s@wrr-k32"},
		Doc: "table entries examined per pick"},
	{Name: "arbtable.stall_ratio", Unit: "ratio", Better: "lower", Kind: "count", Moves: []string{"work_per_s@wrr-k8", "work_per_s@wrr-k32"},
		Doc: "arbitration passes that found nothing schedulable, Stalls/(Picks+Stalls)"},

	{Name: "sim.dispatch_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: []string{"work_per_s@wrr-k8"},
		Doc: "Engine.Post + Engine.Step with 4096 events pending"},
	{Name: "sim.events", Unit: "count", Better: "lower", Kind: "count", Moves: []string{"work_per_s@wrr-k8"},
		Doc: "events executed in the timed windows"},
	{Name: "sim.events_per_bt", Unit: "ratio", Better: "lower", Kind: "count", Moves: []string{"work_per_s@wrr-k8"},
		Doc: "events executed per simulated byte-time"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher", Kind: "derived", Moves: []string{"work_per_s@wrr-k8"},
		Doc: "events per untraced host second (1e9 / this = ns per event)"},
	{Name: "sim.window_ms_p50", Unit: "ms", Better: "lower", Kind: "span", Moves: []string{"work_per_s@wrr-k8"},
		Doc: "median host time of one untraced timed window"},
	{Name: "sim.window_ms_p90", Unit: "ms", Better: "lower", Kind: "span", Moves: []string{"work_per_s@wrr-k8"},
		Doc: "90th percentile of the same"},
	{Name: "sim.windows", Unit: "count", Better: "lower", Kind: "count", Moves: []string{"work_per_s@wrr-k8-shards2"},
		Doc: "coordinator synchronization windows in the timed region; on wrr-k8 those of the two-shard pass its traced repetition also makes, 0 on the other single-engine workloads"},
	{Name: "sim.barriers", Unit: "count", Better: "lower", Kind: "count", Moves: []string{"work_per_s@wrr-k8-shards2"},
		Doc: "coordinator barrier passes in the timed region, of the same pass"},
	{Name: "sim.events_per_window", Unit: "ratio", Better: "higher", Kind: "count", Moves: []string{"work_per_s@wrr-k8-shards2"},
		Doc: "events per synchronization window of the same pass: the work a barrier is amortized over"},
	{Name: "sim.shard_speedup", Unit: "ratio", Better: "higher", Kind: "derived", Moves: []string{"work_per_s@wrr-k8-shards2"},
		Doc: "work_per_s of a two-shard pass over a single-engine pass of the same fabric in the same process; wrr-k8 and wrr-k8-shards2 each run the other as reference (0 elsewhere)"},
	{Name: "sim.shard_event_drift", Unit: "ratio", Better: "lower", Kind: "count", Moves: []string{"work_per_s@wrr-k8-shards2"},
		Doc: "|events(sharded) - events(single)| / events(single) over the same two passes; non-zero today"},

	{Name: "fabric.new_s", Unit: "s", Better: "lower", Kind: "span", Moves: []string{"setup_s@wrr-k32"},
		Doc: "NewWithTopology (BuildControl on admit-k8)"},
	{Name: "fabric.hops", Unit: "count", Better: "lower", Kind: "count", Moves: []string{"work_per_s@wrr-k8", "work_per_s@wrr-k32"},
		Doc: "switch forwarding decisions in the timed windows (OnForward)"},
	{Name: "fabric.hops_per_s", Unit: "1/s", Better: "higher", Kind: "derived", Moves: []string{"work_per_s@wrr-k8", "work_per_s@wrr-k32"},
		Doc: "hops per untraced host second (1e9 / this = ns per hop, the continuity row for BenchmarkPerHopForwarding)"},
	{Name: "fabric.delivered_pkts", Unit: "count", Better: "higher", Kind: "count", Moves: []string{"work_per_s@wrr-k8"},
		Doc: "packets delivered in the timed windows"},
	{Name: "fabric.injected_pkts", Unit: "count", Better: "higher", Kind: "count", Moves: []string{"work_per_s@wrr-k8"},
		Doc: "packets injected in the timed windows"},
	{Name: "fabric.host_drops", Unit: "count", Better: "lower", Kind: "count", Moves: []string{"work_per_s@wrr-k32"},
		Doc: "packets dropped at full host send queues in the timed windows"},
	{Name: "fabric.queue_depth_mean", Unit: "ratio", Better: "lower", Kind: "count", Moves: []string{"work_per_s@wrr-k32"},
		Doc: "mean source-queue depth behind a picked packet"},
	{Name: "fabric.bytes_per_switch", Unit: "B", Better: "lower", Kind: "derived", Moves: []string{"live_heap_mb@wrr-k32", "live_heap_mb@voq-islip-k8"},
		Doc: "live heap after the timed windows divided by the switch count"},
	{Name: "fabric.qos_deadline_miss_ratio", Unit: "ratio", Better: "lower", Kind: "count", Moves: []string{"none"},
		Doc: "QoS packets delivered after their flow deadline / QoS packets delivered in the timed windows; the modelled design's result, 0 today"},
	{Name: "fabric.qos_delay_ratio_max", Unit: "ratio", Better: "lower", Kind: "count", Moves: []string{"none"},
		Doc: "largest delay/deadline over those packets; below 1 means every deadline was met"},
	{Name: "fabric.voq_passes", Unit: "count", Better: "lower", Kind: "count", Moves: []string{"work_per_s@voq-islip-k8"},
		Doc: "crossbar scheduling passes in the timed windows"},
	{Name: "fabric.voq_passes_per_s", Unit: "1/s", Better: "higher", Kind: "derived", Moves: []string{"work_per_s@voq-islip-k8"},
		Doc: "scheduling passes per untraced host second"},
	{Name: "fabric.voq_match_size_mean", Unit: "ratio", Better: "higher", Kind: "count", Moves: []string{"work_per_s@voq-islip-k8"},
		Doc: "matched pairs per scheduling pass"},
	{Name: "fabric.voq_hol_stall_ratio", Unit: "ratio", Better: "lower", Kind: "count", Moves: []string{"work_per_s@voq-islip-k8"},
		Doc: "backlogged inputs left unmatched per scheduling pass"},
	{Name: "fabric.islip_match_r8_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: []string{"work_per_s@voq-islip-k8"},
		Doc: "ISLIPState.Match on a full 8x8 request matrix"},
	{Name: "fabric.islip_match_r32_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: []string{"none"},
		Doc: "ISLIPState.Match on a full 32x32 request matrix (no workload runs VOQ at radix 32 yet)"},

	{Name: "admission.fill_share", Unit: "ratio", Better: "lower", Kind: "span", Moves: []string{"setup_s@wrr-k32"},
		Doc: "share of set-up time spent in the admission fill (0 on churn-inband-k8, which starts empty)"},
	{Name: "admission.admit_us_p50", Unit: "us", Better: "lower", Kind: "probe", Moves: []string{"work_per_s@admit-k8"},
		Doc: "median host time of one Admit call in a 20 000-call closed loop like admit-k8's"},
	{Name: "admission.admit_us_p99", Unit: "us", Better: "lower", Kind: "probe", Moves: []string{"work_per_s@admit-k8"},
		Doc: "99th percentile of the same"},
	{Name: "admission.release_us_p50", Unit: "us", Better: "lower", Kind: "probe", Moves: []string{"work_per_s@admit-k8"},
		Doc: "median host time of one Release call in that loop"},
	{Name: "admission.release_us_p99", Unit: "us", Better: "lower", Kind: "probe", Moves: []string{"work_per_s@admit-k8"},
		Doc: "99th percentile of the same"},
	{Name: "admission.admitted", Unit: "count", Better: "higher", Kind: "count", Moves: []string{"accept_ratio@admit-k8", "accept_ratio@churn-inband-k8"},
		Doc: "connections admitted (the accept_ratio numerator; on churn-inband-k8 this and the other lifecycle counts cover the whole run)"},
	{Name: "admission.rejected_capacity", Unit: "count", Better: "lower", Kind: "count", Moves: []string{"accept_ratio@admit-k8", "accept_ratio@churn-inband-k8"},
		Doc: "requests refused for lack of table entries or budget"},
	{Name: "admission.rejected_busy", Unit: "count", Better: "lower", Kind: "count", Moves: []string{"accept_ratio@churn-inband-k8"},
		Doc: "requests that exhausted their retries on hops mid-reprogram"},
	{Name: "admission.admit_latency_bt_mean", Unit: "BT", Better: "lower", Kind: "count", Moves: []string{"accept_ratio@churn-inband-k8"},
		Doc: "simulated byte-times from arrival to admission, mean (non-zero only when busy hops forced back-off)"},

	{Name: "subnet.mads", Unit: "count", Better: "lower", Kind: "count", Moves: []string{"work_per_s@churn-inband-k8"},
		Doc: "SMPs spent programming table deltas in-band, over the whole run: warm-up, timed windows and drain"},
	{Name: "subnet.mads_per_lifecycle", Unit: "ratio", Better: "lower", Kind: "count", Moves: []string{"work_per_s@churn-inband-k8"},
		Doc: "SMPs per offered connection lifecycle, both over the whole run"},
	{Name: "subnet.program_time_bt", Unit: "BT", Better: "lower", Kind: "count", Moves: []string{"work_per_s@churn-inband-k8"},
		Doc: "serialized MAD round-trip time charged by the programmer over the whole run, byte-times"},
	{Name: "subnet.open_txn_at_end", Unit: "count", Better: "lower", Kind: "count", Moves: []string{"none"},
		Doc: "ports still programming or dirty after the drain; must be 0"},
	{Name: "mad.block_roundtrip_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: []string{"work_per_s@churn-inband-k8"},
		Doc: "HighBlockSMP, Marshal, Unmarshal, DecodeArbBlock for one 16-entry block"},

	{Name: "plan.evaluate_ms", Unit: "ms", Better: "lower", Kind: "probe", Moves: []string{"none"},
		Doc: "plan.Evaluate on a k=8 fat-tree at load 2; no workload runs the planner, tracked because it is a layer"},
	{Name: "metrics.traced_overhead_ratio", Unit: "ratio", Better: "lower", Kind: "derived", Moves: []string{"none"},
		Doc: "host time of the traced windows / host time of the same untraced windows in the same process"},
}
