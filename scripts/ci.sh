#!/usr/bin/env bash
# ci.sh — the repo's full verification gate.
#
#   fmt        gofmt -l must be empty (formatting is part of the gate)
#   vet        static checks
#   build      every package compiles
#   examples   every program under examples/ runs to exit 0 (output
#              discarded), so an example that no longer works fails here
#   race tests the whole suite under the race detector with shuffled
#              test order (every experiment fans out through
#              runner.Sweep's worker pool, which makes this the
#              load-bearing pass; shuffling flushes out any state one
#              test leaves for another).  It includes cmd/ibsim's
#              *JSONGolden and *JSONParallelIdentical tests, which run
#              every ibsim experiment with a JSON report at the tiny
#              scale against its golden on 1 and 4 sweep workers, and
#              check that every one reading -shards reports the same at
#              -shards 2 on 1 and 4 workers (the parallel core is
#              deterministic at a fixed shard count), and TestTextGolden,
#              which runs every experiment without a JSON report at the
#              tiny scale on one worker against its testdata/*.golden.txt
#   alloc gate the zero-alloc budgets of the data-plane hot paths,
#              run WITHOUT the race detector (race instrumentation
#              allocates, so the budgets only hold in a plain build)
#   fuzz smoke a short coverage-guided run of each fuzz target on top
#              of the checked-in seed corpus
#   bench smoke one short repetition of every gated benchmark workload,
#              failing unless it reports "correct":true (no timing gate)
#   shardbench one short sharded-core benchmark run: its rows are
#              wall-clock, so it has no golden
#
# Usage: scripts/ci.sh [--no-fuzz]
#   FUZZTIME=30s scripts/ci.sh   # longer fuzz smoke
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"
RUN_FUZZ=1
if [[ "${1:-}" == "--no-fuzz" ]]; then
    RUN_FUZZ=0
fi

echo "==> gofmt -l"
UNFORMATTED="$(gofmt -l .)"
if [[ -n "$UNFORMATTED" ]]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go run ./examples/... (every example runs to exit 0)"
for e in examples/*/; do
    go run "./$e" >/dev/null
done

echo "==> go test -race -shuffle=on ./..."
# The experiments suite runs whole simulation sweeps; under the race
# detector on a small machine that legitimately exceeds go test's
# default 10m budget.
go test -race -shuffle=on -timeout=60m ./...

echo "==> go test -run 'Acyclic|TestVerifyDifferential|TestVerifySeparable' ./internal/routing/cdg and -run 'Acyclic|Legal|TestRepair' ./internal/routing (deadlock-freedom gate)"
# Every shipped routing engine must stay provably deadlock-free: the
# channel-dependency graphs of the irregular, fat-tree and dragonfly
# engines are re-verified acyclic across the seeded shape grid.  The
# proof walks each (destination, base VL) route tree once, and walks
# base VL 0 alone when the hop VLs are plane-separable (every other base
# VL's graph is then a disjoint relabelled copy), every base VL
# otherwise.  The differential tests hold both paths to the retired
# walk-every-route verifier — Stats, error text and cycle witness — on
# every class, degraded fabrics, the escape plane stripped, engines
# that break separability and the cyclic ring.  The routing package's
# own proofs then re-check the tables its one up*/down* engine builds,
# intact (channel-dependency acyclicity, up*/down* legality on random
# fabrics) and repaired (every single link failure and switch crash,
# and an intact fabric repaired to exactly ComputeFor's tables).
go test -run 'Acyclic|TestVerifyDifferential|TestVerifySeparable' -count=1 ./internal/routing/cdg
go test -run 'Acyclic|Legal|TestRepair' -count=1 ./internal/routing

echo "==> go test -race -run TestParallelShard ./internal/fabric (sharded-core race gate)"
# The conservative-lookahead window protocol is only correct if shards
# share nothing inside a window; the multi-shard smoke under the race
# detector is the proof obligation (-count=1 so it always re-runs).
go test -race -run 'TestParallelShard' -count=1 ./internal/fabric

echo "==> go test -race -run 'TestHeadIndex|TestCheckBuffersAudits|TestRecovery' ./internal/fabric (failure recovery, request index across it, fabric audit mutations)"
# Every switch model reads one push-maintained request index over the
# input buffers (internal/fabric/pipeline.go).  An activation of the
# subnet manager's recovery (internal/subnet/recovery.go) repairs the
# routes and handles the connections, then hands the data plane to
# Network.Reroute: re-VL, drain, sweep, re-stamping of every buffered
# packet's output and the index rebuild.  TestHeadIndexAcrossFailover
# audits the index the instant each activation completes and compares
# it with the retired scans from then on, under every switch model;
# TestHeadIndexIgnoresUnroutableHeads covers a front packet with no
# route.  The TestRecovery tests run the link-failure, switch-crash and
# revival schedules under every switch model, with conservation, the
# repaired routes' CDG proof and the manager's view checked after each
# activation.  The TestCheckBuffersAudits rows break one invariant each
# — an active-table write behind the arbiter, a shadow slot a
# defragmenter skipped, a reservation no connection owns, one word of
# the live index view, a word of the view the switch rule does not
# read, a stamped output or a busy mask, a route swap without a rebuild
# — and require Network.CheckBuffers or CheckInvariants to name it.
go test -race -run 'TestHeadIndex|TestCheckBuffersAudits|TestRecovery' -count=1 ./internal/fabric

echo "==> go test -race -run 'TestRequestIndex|TestPacketQueueDifferential' ./internal/fabric (request-index and packet-FIFO differentials)"
# The scheduling passes read the request index and a word-wide iSLIP
# instead of scanning queue heads and queue groups;
# TestRequestIndexMatchesScan compares, after every event and under every
# switch model, the WRR candidates at every port and every VL 15 pick,
# request matrix and matching of the crossbar with the retired scans
# (TestParallelShardRequestIndex, matched by the sharded-core gate above,
# does the same at the barriers of two-shard runs, with the crossbar
# replay on the shard goroutines).  Each switch's index keeps only the
# view its rule reads; TestRequestIndexWordWrites diffs the index words
# around a pop and a push of every buffer's sendable packet over the same
# runs, and fails on any word of the other view written.  Both switch models buffer packets in
# the same per-(input, VL) input queues, intrusive FIFOs linked through
# the packets they hold; each packet records its output, and a VOQ head
# is the first packet for that output in the buffer, read by a walk and
# unlinked from the middle of the chain, where the reference scan finds
# it through the routing tables instead.  TestPacketQueueDifferential
# drives several queues sharing one packet pool against slice FIFOs
# (push, pop, moves between queues, unlinks of the first packet for an
# output, failover's pop-and-push-back filter) and checks order, length,
# the chain and the first packet and count per output after every
# operation.
go test -race -run 'TestRequestIndex|TestPacketQueueDifferential' -count=1 ./internal/fabric

echo "==> go test -race -run 'TestIdle|TestVOQDeliveryDigest|TestWRRDeliveryDigest|TestWRREventsPerHop|TestJitterAggregateMatchesReplay' ./internal/fabric (no scheduling pass that cannot send)"
# A kick at a WRR port posts no pass while the port transmits or,
# without a fault schedule, while no front packet requests it; a kick at
# an input-queued switch posts a pass only when a free output has a
# VL 15 candidate or a remembered request from a free input
# (TestRequestIndex above holds that predicate, the remembered request
# columns and the lazily cleared busy masks to the retired scans after
# every event).  TestIdlePassChangesNothing runs a pass directly wherever
# a kick declined, under every switch model, after every event and under
# WRR fault windows, and TestIdleParallelShards at the barriers of
# two-shard runs, where kicks also execute in the barrier's credit
# flush; both require that nothing changed.  TestWRRDeliveryDigest and
# TestVOQDeliveryDigest pin every delivery's (flow, tag, byte-times) to
# constants recorded before the kick rules, on every routing class, and
# for WRR under fault windows, at crossbar speedup 1 and at
# LimitOfHighPriority 0; TestWRREventsPerHop budgets events per forward
# and arbiter stalls on a fixed run.  TestJitterAggregateMatchesReplay
# holds the per-SL jitter the delivering shards keep to a per-flow
# replay of every delivery, under WRR and VOQ-iSLIP.
go test -race -run 'TestIdle|TestVOQDeliveryDigest|TestWRRDeliveryDigest|TestWRREventsPerHop|TestJitterAggregateMatchesReplay' -count=1 ./internal/fabric

echo "==> go test -race -run TestArbiterIndex ./internal/arbtable (high-table slot-mask differential)"
# Arbiter.Pick finds the next serving high-table entry on per-VL slot
# masks (one rotate and one count-trailing-zeros) instead of walking 64
# entries, and reads the low table only when the high table cannot serve
# or its allowance is used up; the differential test drives it and the
# retired walk, taught the same low-table rule, over one table with
# random scripts — swaps mid-allowance, shrinking low tables, every Limit
# class, idle passes — and compares every pick, cursor and counter.
# Network.CheckInvariants (through CheckBuffers) audits the masks of
# every wired port, so the fabric gates above, every experiment's end
# audit and the bench smoke below cover them too.
go test -race -run 'TestArbiterIndex' -count=1 ./internal/arbtable

echo "==> go test -race -run 'TestAllocatorMask|TestDefragmentCanonical|TestReleaseStale|TestDeliverBlock|TestApply|TestStagingPool' ./internal/core (fill-in occupancy-mask, canonical-layout, stale-token, delta-completion and staging-pool differentials)"
# The allocator keeps slot ownership as one 64-bit word, the live
# sequences as an ID-ordered list and the reserved weight as a running
# total instead of walking an owner array and a map; the differential
# test drives it and the retired array/map allocator with one random
# script per seed and policy — joins, fresh placements at every
# distance, releases with their defragmentation, rollbacks, malformed
# requests — and compares table bytes, sequences, move counts and
# outcomes after every operation.  TestDefragmentCanonicalLayout holds
# the one-pass defragmenter to the canonical layout of the live
# multiset and to the retired per-class loop after every emptying
# release; TestReleaseStaleHandle releases tokens whose sequence is gone
# or whose record was reused.  Allocator.CheckInvariants re-derives
# the word, the total, the order, the lane index and the record pool and
# states the distance guarantee; PortTable.CheckInvariants adds the
# changed-block mask and the open transaction's state and runs
# after every step of the delivery differential, and Network.CheckInvariants runs it on every port with
# the reservation ledger, so the experiment end audits and the bench
# smoke below cover them too.  A port completes a delta against
# its recorded target instead of reassembling a table:
# TestDeliverBlockDifferential drives it and the retired reassembly
# through random block scripts — shuffled, duplicated, stale, future,
# wrong totals, off-delta and altered blocks, cancels — and compares
# every outcome, error text, active table, version and counter;
# TestApplyMatchesDelivery holds the synchronous Apply to BeginProgram
# plus delivery of every block over random histories.  A port holds its
# transaction's staging (target, staged blocks, version) only while the
# transaction is open, in a record from a free list its slab's ports
# share: TestStagingPoolShared interleaves BeginProgram, deliveries,
# torn aborts and cancels across such ports with records poisoned on
# return, and requires after every step that no record backs two open
# transactions or sits on the free list while open, and that the pool
# holds as many records as transactions were ever open at once.
go test -race -run 'TestAllocatorMask|TestDefragmentCanonical|TestReleaseStale|TestDeliverBlock|TestApply|TestStagingPool' -count=1 ./internal/core

echo "==> go test -race -run TestEngineWheel ./internal/sim (timing-wheel event-queue differential)"
# The engine finds its next event in a ring of per-byte-time FIFO
# buckets (one shift and one count-trailing-zeros on an occupancy
# bitmap); later events wait in eleven coarse levels of 64 buckets,
# each of which cascades into the levels below as soon as they reach
# it.  The differential test drives it and the retired heap-only queue
# with one random script per seed — every delay class of the ring and
# around the end of every level's range up to math.MaxInt64, timers
# canceled in the ring, in a coarse level, fired and recycled, handlers
# that defer and re-post into the bucket being drained, Run stopping
# just before, at and after a cascade and jumping across empty levels,
# PoolDisabled toggled mid-script — and compares the executed sequence
# and Now/NextTime/Pending/Executed/Stats after every call, re-deriving
# every level's bitmaps, links and placement from the records each
# time.  Every simulation above and the bench smoke below run on the
# same queue.
go test -race -run 'TestEngineWheel' -count=1 ./internal/sim

echo "==> go test -race ./internal/subnet ./internal/admission (delivery-record lifetime gate)"
# Every in-band SMP flies in a record recycled through the programmer's
# free list, its 256 wire bytes inline.  TestDeliveryPoolLifetime runs
# 2 000 connection lifecycles over the k=8 control state — perfect and
# duplicating/corrupting/reordering management networks — with records
# poisoned as they are recycled, so that transactions chained from
# inside a delivery would trip over a record returned too early; the
# admission tests hold the typed refusals to the old text, the
# one-object connection to its copy, and Admit's read-only decide pass
# to the retired reserve-then-rollback Admit (TestAdmitDecideDifferential:
# three topology classes, both placement policies, quarantined and
# mid-reprogram hops; decision, error text, table bytes and moves after
# every call).  -count=1 so the gate always re-runs; the detector sees
# the pool from the control lane of the parallel runs in the gate below.
go test -race -count=1 ./internal/subnet ./internal/admission

echo "==> go test -race -run 'TestParallelControl|TestTableSwapWakesPort|TestChurnTerminates' (control-lane race gate)"
# Churn and faults run their control planes — mid-run table programs,
# retransmission, audits — as typed events serialized at window
# barriers; the multi-shard churn/faults smoke under the race detector
# proves the control lane never touches shard state inside a window.
# A table swap also posts from the control lane into a shard engine:
# it re-arms the swapped port at the barrier, so the swap-wake and
# termination tests (both run at two parallel shards) join the gate.
go test -race -run 'TestParallelControl|TestTableSwapWakesPort|TestChurnTerminates' -count=1 ./internal/fabric ./internal/experiments

echo "==> go test -run AllocBudget . and 'TestVOQStateSizedByRadix|TestPortRecordSizes' ./internal/fabric (zero-alloc hot-path and memory gate)"
# The heap a fresh k=8 network holds per switch, at most 16 300 B (WRR)
# and 16 600 B (VOQ-iSLIP) (the VOQs index the input buffers and hold
# no packets of their own; each switch carves only the index view its
# rule reads; transaction staging and boundary-credit mirrors exist only
# where a port uses them), and a Packet of at most 64 bytes;
# TestVOQStateSizedByRadix holds a VOQ-iSLIP switch of the k=8 and k=16
# fat-trees to at most 4 kB more heap than its WRR twin and each model's
# index to its own view's words; the
# record-size gates hold a core.PortTable to 88 bytes
# (TestAllocBudgetFillIn), the fabric's per-port records — inPort,
# outPort, hostNode, pktQueue — to 360, 112, 376 and 16 bytes, and a
# switch (swNode) to 136 bytes with its request index (reqIndex, two
# slab slices over the one view its rule reads) to 72
# (TestPortRecordSizes), and admission's per-connection records — a
# connection's hop (hopRecordMaxBytes, 24 bytes), a six-hop connection
# with its hop list (connRecordMaxBytes, 256, also measured as the bytes
# a six-hop Admit + Release allocates) and a refusal's hopError
# (hopErrorMaxBytes, 48) — (TestAllocBudgetAdmissionRecords);
# testing.AllocsPerRun budgets: 0 allocs/op on arbiter pick, on the
# event queue's Post + Step (near, far, timer + Cancel) and on a full
# per-hop packet forwarding step with metrics disabled; the
# fill-in budgets (0 on join/leave, defragment, the audit, a
# programmed delta and a synchronous Apply, and 0 on a fresh sequence
# placed and freed, its record recycled); 0 on an in-band transaction
# of one to four blocks — BeginProgram, every SMP rendered to its wire
# bytes, flown, parsed and delivered; 1 (its error) on a refusal at
# the last hop of a saturated k=8 path, which changes no table; the
# ceilings on a whole Admit + Release transaction (1 per offered
# request: the connection, or a refusal's error) and on a whole
# connection lifecycle of the in-band churn loop; the set-up ceilings
# (TestAllocBudgetNetworkSetup: at most 200 objects for a k=8
# NewWithTopology under either switch model, whose ports, hosts,
# arbiters and indexes come from per-network slabs; 4 000 for a whole
# wrr-k8-like set-up; 1 per AddConnection, its one-record Flow of at
# most 192 bytes, which the full pass's TestFlowRecordHoldsNoPointers
# keeps pointer-free); and a dozen slices, at most 150 kB, per k=8 CDG proof.  These tests are the
# zero-alloc contract itself, not a report beside one; the same paths'
# timings are bench/'s per-layer probes (bash bench/run.sh -trace 1).
# Must run without -race (the detector's instrumentation allocates).
go test -run 'AllocBudget' -count=1 .
go test -run 'TestVOQStateSizedByRadix|TestPortRecordSizes' -count=1 ./internal/fabric

if [[ "$RUN_FUZZ" -eq 1 ]]; then
    # -fuzz takes one target per invocation; -run='^$' skips the unit
    # tests already covered by the race pass.
    while read -r pkg target; do
        echo "==> fuzz smoke: $pkg $target ($FUZZTIME)"
        go test "$pkg" -run='^$' -fuzz="^${target}\$" -fuzztime="$FUZZTIME"
    done <<'EOF'
./internal/core FuzzAllocatorTrace
./internal/core FuzzDecide
./internal/core FuzzDeliverBlock
./internal/core FuzzShape
./internal/arbtable FuzzArbiterPick
./internal/mad FuzzHighTableDecode
./internal/mad FuzzHighBlockCodec
./internal/faults FuzzFaultSchedule
./internal/faults FuzzFailureSchedule
./internal/topology FuzzTopologyGenerate
./internal/routing/cdg FuzzVerify
./internal/fabric FuzzISLIPSchedule
./internal/plan FuzzPlanSpec
./internal/sim FuzzEngineTrace
EOF
fi

echo "==> bench correctness smoke (one short repetition per gated workload)"
# Not a timing gate: each repetition runs the benchmark's own checks
# (conservation, CheckBuffers — the data-plane half of
# Network.CheckInvariants, which audits the arbiter slot masks and the
# request index: the WRR head view, or the VOQ occupancy words,
# remembered request columns and busy masks — control-plane audits) and must report
# "correct":true.
for w in wrr-k8 voq-islip-k8 admit-k8 churn-inband-k8; do
    RESULT="$(bash bench/run.sh -workload "$w" -seed 7 -seconds 1 -trace 0 | tail -n 1)"
    if [[ "$RESULT" != *'"correct":true'* ]]; then
        echo "bench smoke: workload $w did not report correct:true: $RESULT" >&2
        exit 1
    fi
done

echo "==> ibsim -exp shardbench (parallel core smoke)"
go run ./cmd/ibsim -exp shardbench -bench-shards 1,4 -bench-horizon 200000 >/dev/null

echo "==> ci.sh: all green"
