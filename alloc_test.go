// Allocation-budget gates for the data-plane hot paths.  These are the
// CI guards behind the zero-alloc contract of the typed-event engine:
// with observability disabled (the default), an arbitration pick and a
// full per-hop packet forwarding step must not allocate.  ci.sh runs
// them explicitly; a regression here fails the build.  Timings are
// bench/'s probes, not these tests'.
package repro_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/admission"
	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/routing"
	"repro/internal/routing/cdg"
	"repro/internal/sim"
	"repro/internal/sl"
	"repro/internal/subnet"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestAllocBudgetArbiterPick gates the output-port scheduler: picking
// from a loaded table allocates nothing.
func TestAllocBudgetArbiterPick(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets hold only without race instrumentation")
	}
	table := arbtable.New(2)
	alloc := core.NewAllocator(table)
	for i := 0; i < 8; i++ {
		if _, err := alloc.Allocate(uint8(i), 8, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	table.Low = []arbtable.Entry{{VL: 10, Weight: 8}, {VL: 11, Weight: 4}}
	arb := arbtable.NewArbiter(table)
	var ready arbtable.Ready
	for vl := 0; vl < 8; vl++ {
		ready[vl] = 282
	}
	ready[10], ready[11] = 282, 282
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, ok := arb.Pick(&ready); !ok {
			t.Fatal("nothing picked")
		}
	})
	if allocs != 0 {
		t.Errorf("arbiter pick allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestAllocBudgetPerHopForwarding gates the full steady-state packet
// path with metrics disabled: generating, arbitrating, forwarding
// through the crossbar and delivering one packet — every event the
// fabric schedules — must run allocation-free once the packet and
// event pools are warm.
func TestAllocBudgetPerHopForwarding(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets hold only without race instrumentation")
	}
	topo, err := topology.Generate(2, 41)
	if err != nil {
		t.Fatal(err)
	}
	net, err := fabric.NewWithTopology(fabric.DefaultConfig(2, 256, 41), topo)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Adm.Admit(traffic.Request{Src: 0, Dst: 7, Level: sl.DefaultLevels[9], Mbps: 64})
	if err != nil {
		t.Fatal(err)
	}
	net.AddConnection(conn)
	net.Start()
	// Warm-up: queues, pools and the event heap reach steady-state
	// capacity.
	net.Engine.Run(1 << 22)
	_, delivered, _ := net.Totals()
	target := delivered
	cond := func() bool {
		_, d, _ := net.Totals()
		return d < target
	}
	allocs := testing.AllocsPerRun(200, func() {
		target++
		net.Engine.RunWhile(cond)
	})
	if allocs != 0 {
		t.Errorf("per-hop forwarding allocates %.2f allocs/op, want 0", allocs)
	}
	if s := net.StaleArrivals(); s != 0 {
		t.Errorf("StaleArrivals = %d, want 0", s)
	}
}

// nopHandler is a typed-event handler that does nothing.
type nopHandler struct{}

func (nopHandler) HandleEvent(sim.Event) {}

// farDelay lies beyond the engine's one-byte-time ring (level 0 ends at
// most 2^12 byte times ahead), in its first coarse level, so an event
// posted that far ahead cascades into the ring before it runs.
const farDelay = 3 << 14

// TestAllocBudgetEngine gates the event queue itself: in steady state
// Post + Step allocates nothing for a near event (level-0 bucket), for a
// far one (coarse bucket, cascade, level-0 bucket) or for a timer armed
// and canceled, and the ring an engine's first near event allocates
// stays within 48 kB — and is not allocated at all by far events alone.
//
// The two heap gates read the process-wide TotalAlloc, which a stray
// allocation on another goroutine can raise, so each takes the least of
// three fresh sized engines: an allocation in Post repeats every time,
// a stray one does not.
func TestAllocBudgetEngine(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets hold only without race instrumentation")
	}
	var h nopHandler
	heapDelta := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var e *sim.Engine
	farBytes, nearBytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		e = new(sim.Engine)
		e.Grow(256)
		farBytes = min(farBytes, heapDelta(func() { e.Post(farDelay, h, sim.Event{}) }))
		nearBytes = min(nearBytes, heapDelta(func() { e.Post(700, h, sim.Event{}) }))
	}
	if farBytes != 0 {
		t.Errorf("a far event on a sized engine allocated %d bytes, want 0 (no wheel)", farBytes)
	}
	if nearBytes == 0 || nearBytes > 48<<10 {
		t.Errorf("the first near event allocated %d bytes, want the ring, at most 48 kB", nearBytes)
	}
	for i := int64(0); i < 64; i++ {
		e.Post(i*37, h, sim.Event{})
		e.Post(farDelay+i*997, h, sim.Event{})
	}
	for name, step := range map[string]func(){
		"near":        func() { e.Post(e.Now()+700, h, sim.Event{}); e.Step() },
		"far":         func() { e.Post(e.Now()+farDelay, h, sim.Event{}); e.Step() },
		"cancel near": func() { e.Cancel(e.PostTimerAfter(700, h, sim.Event{})) },
		"cancel far":  func() { e.Cancel(e.PostTimerAfter(farDelay, h, sim.Event{})) },
	} {
		if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
			t.Errorf("engine %s step allocates %.2f allocs/op, want 0", name, allocs)
		}
	}
	if s := e.Stats(); s.Canceled == 0 || s.PoolReuse == 0 || s.Placed[1] == 0 || s.Cascaded[1] == 0 {
		t.Errorf("steady-state steps never canceled, recycled or cascaded from level 1: %+v", s)
	}
}

// TestAllocBudgetVOQForwarding gates the input-queued forwarding path:
// the steady-state packet path through the VOQ crossbar — enqueue into
// the virtual output queue, the scheduling pass (iSLIP matching or the
// MWM oracle), the arbitration-table lane pick, and delivery — must
// also run allocation-free once warm, for both schedulers at the 8-port
// radix and for iSLIP at the full 32-port radix (a three-group
// dragonfly with 17 ports in use per switch; the oracle stops at 16).
func TestAllocBudgetVOQForwarding(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets hold only without race instrumentation")
	}
	radix8 := topology.Spec{Class: topology.Irregular, Switches: 2, Seed: 41}
	radix32 := topology.Spec{Class: topology.Dragonfly, A: 2, P: 15, H: 1}
	for _, tc := range []struct {
		name  string
		model fabric.SwitchModel
		spec  topology.Spec
		ports int
	}{
		{"voq-islip", fabric.ModelVOQISLIP, radix8, 8},
		{"voq-mwm", fabric.ModelVOQMWM, radix8, 8},
		{"voq-islip-radix32", fabric.ModelVOQISLIP, radix32, 32},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			topo, err := tc.spec.Generate()
			if err != nil {
				t.Fatal(err)
			}
			if topo.Ports() != tc.ports {
				t.Fatalf("%s has radix %d, want %d", tc.spec.Label(), topo.Ports(), tc.ports)
			}
			cfg := fabric.DefaultConfig(topo.NumSwitches, 256, 41)
			cfg.SwitchModel = tc.model
			net, err := fabric.NewWithTopology(cfg, topo)
			if err != nil {
				t.Fatal(err)
			}
			// First host to last: across the two switches, or across
			// dragonfly groups.
			conn, err := net.Adm.Admit(traffic.Request{Src: 0, Dst: topo.NumHosts() - 1, Level: sl.DefaultLevels[9], Mbps: 64})
			if err != nil {
				t.Fatal(err)
			}
			net.AddConnection(conn)
			net.Start()
			net.Engine.Run(1 << 22)
			_, delivered, _ := net.Totals()
			target := delivered
			cond := func() bool {
				_, d, _ := net.Totals()
				return d < target
			}
			allocs := testing.AllocsPerRun(200, func() {
				target++
				net.Engine.RunWhile(cond)
			})
			if allocs != 0 {
				t.Errorf("%s forwarding allocates %.2f allocs/op, want 0", tc.name, allocs)
			}
			if s := net.StaleArrivals(); s != 0 {
				t.Errorf("StaleArrivals = %d, want 0", s)
			}
		})
	}
}

// Heap a fresh k=8 fat-tree network may hold per switch, everything it
// retains included: routes, arbitration tables, admission state, the
// switches' port slices and input buffers, and the request index over
// those buffers, which keeps only the view its switch rule reads — the
// head view under WRR, the any-packet view, which is the VOQs, under
// VOQ-iSLIP.  A switch holds 15.5 kB (WRR) and 15.8 kB (VOQ-iSLIP); the
// budgets are those plus about 5 %.
const (
	fabricBytesPerSwitchWRR = 16_300
	fabricBytesPerSwitchVOQ = 16_600
)

// TestAllocBudgetFabricBytes gates the memory a switch costs: the heap a
// freshly built k=8 network holds after a GC, divided by its switches.
// A Packet, which every buffered, queued and in-flight packet costs,
// must fit one 64-byte cache line.
func TestAllocBudgetFabricBytes(t *testing.T) {
	if size := unsafe.Sizeof(fabric.Packet{}); size > 64 {
		t.Errorf("fabric.Packet is %d bytes, want <= 64", size)
	}
	if raceEnabled {
		t.Skip("alloc budgets hold only without race instrumentation")
	}
	topo, err := topology.Spec{Class: topology.FatTree, K: 8}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		model  fabric.SwitchModel
		budget int64
	}{
		{fabric.ModelWRR, fabricBytesPerSwitchWRR},
		{fabric.ModelVOQISLIP, fabricBytesPerSwitchVOQ},
	} {
		cfg := fabric.DefaultConfig(topo.NumSwitches, 256, 7)
		cfg.SwitchModel = tc.model
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		net, err := fabric.NewWithTopology(cfg, topo)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perSwitch := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(topo.NumSwitches)
		runtime.KeepAlive(net)
		t.Logf("%s: %d bytes per switch", tc.model, perSwitch)
		if perSwitch > tc.budget {
			t.Errorf("a fresh k=8 %s network holds %d bytes per switch, budget %d", tc.model, perSwitch, tc.budget)
		}
	}
}

// The objects a k=8 fabric costs to set up.  NewWithTopology carves its
// hosts, switches, arbiters and request indexes from
// per-network slabs, and admission.NewPorts every port's table,
// allocator, shadow and active tables and low lists from three more
// (and their shared transaction staging free list, one object), so
// what is left is mostly the routes: 134 objects under the WRR model and
// 133 under VOQ-iSLIP, against 6 029 and 6 108 when every port cost
// about eight objects.  A set-up like the benchmark's wrr-k8 (the
// fabric, its CDG proof, 2 admission attempts per host, best-effort
// background, Start) cost 12 315 objects then and 3 430 now, most of
// them the Sequence records of fresh placements, the connections and
// their flows.  A Flow is one pointer-free record, its delay
// distribution inline, its jitter kept per service level on its
// delivering shard and a VBR flow's pacing in its network's side table,
// and must stay in the 192-byte size class: it was 240 bytes while it
// held byte meters, int-wide endpoints and a pacing closure, 368 bytes
// (384-byte class) while it held its own jitter histogram, and its four
// objects totalled 400 bytes before that.
const (
	networkSetupAllocBudget = 200
	wrrSetupAllocBudget     = 4_000
	flowRecordMaxBytes      = 192
)

// TestFlowRecordHoldsNoPointers gates what makes a churn run's kept
// flows cheap to collect: fabric.Flow holds no pointer, func, map,
// slice, string, interface or channel at any depth, so the allocator
// puts it in a span the collector's mark phase never scans.
func TestFlowRecordHoldsNoPointers(t *testing.T) {
	var walk func(path string, rt reflect.Type)
	walk = func(path string, rt reflect.Type) {
		switch rt.Kind() {
		case reflect.Struct:
			for i := 0; i < rt.NumField(); i++ {
				f := rt.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", rt.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Func, reflect.Map,
			reflect.Slice, reflect.String, reflect.Interface, reflect.Chan:
			t.Errorf("%s is a %s: fabric.Flow must hold no pointers", path, rt.Kind())
		}
	}
	walk("Flow", reflect.TypeOf(fabric.Flow{}))
}

// TestAllocBudgetNetworkSetup gates the cost of building a fabric:
// NewWithTopology under both switch models, a whole wrr-k8-like set-up,
// and AddConnection at one object (its Flow) besides the flows slice's
// amortized growth.  Every object a set-up allocates is one more the
// collector marks whenever it runs during a later set-up.
func TestAllocBudgetNetworkSetup(t *testing.T) {
	if size := unsafe.Sizeof(fabric.Flow{}); size > flowRecordMaxBytes {
		t.Errorf("fabric.Flow is %d bytes, want <= %d", size, flowRecordMaxBytes)
	}
	if raceEnabled {
		t.Skip("alloc budgets hold only without race instrumentation")
	}
	topo, err := topology.Spec{Class: topology.FatTree, K: 8}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	const payload, seed = 512, 7
	for _, model := range []fabric.SwitchModel{fabric.ModelWRR, fabric.ModelVOQISLIP} {
		cfg := fabric.DefaultConfig(topo.NumSwitches, payload, seed)
		cfg.SwitchModel = model
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := fabric.NewWithTopology(cfg, topo); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: NewWithTopology allocates %.0f objects", model, allocs)
		if allocs > networkSetupAllocBudget {
			t.Errorf("%s: NewWithTopology at k=8 allocates %.0f objects, budget %d", model, allocs, networkSetupAllocBudget)
		}
	}

	cfg := fabric.DefaultConfig(topo.NumSwitches, payload, seed)
	var net *fabric.Network
	allocs := testing.AllocsPerRun(10, func() {
		if net, err = fabric.NewWithTopology(cfg, topo); err != nil {
			t.Fatal(err)
		}
		if _, err := cdg.Verify(topo, net.Routes); err != nil {
			t.Fatal(err)
		}
		src := traffic.NewSource(sl.DefaultLevels, topo.NumHosts(), seed+1)
		for offered, refused := 0, 0; offered < 2*topo.NumHosts() && refused < 40; offered++ {
			conn, err := net.Adm.Admit(src.Next())
			if err != nil {
				refused++
				continue
			}
			refused = 0
			net.AddConnection(conn)
		}
		for _, be := range traffic.BestEffortBackground(topo.NumHosts(), 600, seed+2) {
			net.AddBestEffort(be)
		}
		net.Start()
	})
	t.Logf("wrr-k8 set-up allocates %.0f objects (%d flows)", allocs, len(net.Flows()))
	if allocs > wrrSetupAllocBudget {
		t.Errorf("a wrr-k8 set-up allocates %.0f objects, budget %d", allocs, wrrSetupAllocBudget)
	}

	net, err = fabric.NewWithTopology(cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Adm.Admit(traffic.Request{Src: 0, Dst: 7, Level: sl.DefaultLevels[9], Mbps: 64})
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun truncates the mean, so the slice's few doublings over
	// 1 000 calls do not count.
	if allocs := testing.AllocsPerRun(1000, func() { net.AddConnection(conn) }); allocs != 1 {
		t.Errorf("AddConnection allocates %.0f objects, want 1 (its Flow)", allocs)
	}
}

// Admission's per-connection records.  A connection's weight is the
// same at every hop, so a hop keeps only the sequence the connection
// joined there (core.Hold) and its port as two int32s: 24 bytes, where
// a hop holding its table pointer and a core.Reservation that copied the
// weight was 40.  A six-hop connection — every cross-pod fat-tree route
// — is then one object of at most 256 bytes with its hop list: it was
// 368 bytes, in the 384-byte size class, while every hop was 40 bytes
// and the header carried a hop count and an int-wide traffic class.  A
// refusal's hopError, one per refused Admit, packs its port and operands
// into int32s: 48 bytes, from 80.
const (
	hopRecordMaxBytes  = 24
	connRecordMaxBytes = 256
	hopErrorMaxBytes   = 48
)

// TestAllocBudgetAdmissionRecords gates those sizes: the hop and the
// six-hop connection from admission.Conn's layout and, without race
// instrumentation, from the bytes a six-hop Admit + Release on a k=8
// fat-tree allocates (its connection, in the size class the runtime
// chose); the hopError from a refusal Admit returns.
func TestAllocBudgetAdmissionRecords(t *testing.T) {
	hops, ok := reflect.TypeOf(admission.Conn{}).FieldByName("hops")
	if !ok {
		t.Fatal("admission.Conn has no hop list")
	}
	hopBytes := hops.Type.Elem().Size()
	t.Logf("hop %d bytes, connection header %d bytes", hopBytes, unsafe.Sizeof(admission.Conn{}))
	if hopBytes > hopRecordMaxBytes {
		t.Errorf("an admission.Conn hop is %d bytes, want <= %d", hopBytes, hopRecordMaxBytes)
	}
	if size := unsafe.Sizeof(admission.Conn{}) + 6*hopBytes; size > connRecordMaxBytes {
		t.Errorf("a six-hop admission.Conn is %d bytes, want <= %d", size, connRecordMaxBytes)
	}

	topo, err := topology.Spec{Class: topology.FatTree, K: 8}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := fabric.BuildControl(fabric.DefaultConfig(topo.NumSwitches, 256, 7), topo)
	if err != nil {
		t.Fatal(err)
	}
	adm := cs.Adm
	// Host 0 and the last host sit in different pods: host interface,
	// edge, aggregation and core uplinks, aggregation and edge downlinks.
	req := traffic.Request{Src: 0, Dst: topo.NumHosts() - 1, Level: sl.DefaultLevels[6], Mbps: 1}
	conn, err := adm.Admit(req)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(conn.Sites()); n != 6 {
		t.Fatalf("path %d -> %d has %d arbitration points, want 6", req.Src, req.Dst, n)
	}
	if err := adm.Release(conn); err != nil {
		t.Fatal(err)
	}

	adm.Down = func(admission.PortID) bool { return true }
	_, err = adm.Admit(req)
	if !errors.Is(err, admission.ErrHopDown) {
		t.Fatalf("Admit over a quarantined hop = %v, want ErrHopDown", err)
	}
	if rt := reflect.TypeOf(err); rt.Kind() != reflect.Pointer {
		t.Errorf("the refusal is a %v, want a pointer to its record", rt)
	} else if size := rt.Elem().Size(); size > hopErrorMaxBytes {
		t.Errorf("a refusal (%v) is %d bytes, want <= %d", rt.Elem(), size, hopErrorMaxBytes)
	}
	adm.Down = nil

	if raceEnabled {
		t.Skip("alloc budgets hold only without race instrumentation")
	}
	const rounds = 1000
	step := func() {
		conn, err := adm.Admit(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := adm.Release(conn); err != nil {
			t.Fatal(err)
		}
	}
	step()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	if objs := (after.Mallocs - before.Mallocs) / rounds; objs != 1 {
		t.Errorf("a six-hop Admit + Release allocates %d objects, want 1 (its connection)", objs)
	}
	bytes := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("a six-hop Admit + Release allocates %d bytes", bytes)
	if bytes > connRecordMaxBytes {
		t.Errorf("a six-hop Admit + Release allocates %d bytes, want <= %d (its connection)", bytes, connRecordMaxBytes)
	}
}

// portTableMaxBytes is the size of a core.PortTable whose in-band
// transaction staging — target table, staged blocks, target version —
// lives in a record taken from its slab's free list only while a
// transaction is open.  Inline, the staging made it 336 bytes, and 344
// when it reassembled every completed delta with a flag per block.
const portTableMaxBytes = 88

// TestAllocBudgetFillIn gates the control-plane writer of the table:
// joining and leaving a shared sequence, defragmentation, the capacity
// queries, the audit, a programming transaction (its Delta is a value)
// and a synchronous Apply allocate nothing; nor does a fresh allocation
// whose sequence is then freed, the allocator reusing the record (it
// cost one, the Sequence record, until records were recycled); an
// Allocator stays within the size the occupancy word and the
// ID-ordered live list brought it to (it was 936 bytes plus a map with
// an owner array per slot, times one allocator per port), and a
// PortTable within portTableMaxBytes.
func TestAllocBudgetFillIn(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets hold only without race instrumentation")
	}
	if size := unsafe.Sizeof(core.Allocator{}); size > 512 {
		t.Errorf("core.Allocator is %d bytes, want <= 512", size)
	}
	if size := unsafe.Sizeof(core.PortTable{}); size > portTableMaxBytes {
		t.Errorf("core.PortTable is %d bytes, want <= %d", size, portTableMaxBytes)
	}
	pt := core.NewPortTable(arbtable.New(arbtable.UnlimitedHigh))
	// A resident population on several lanes and of several sizes, so
	// that every pass below has sequences to visit.
	for vl, d := range []int{2, 8, 16, 32, 64, 64} {
		if _, err := pt.Reserve(uint8(vl), d, 100); err != nil {
			t.Fatal(err)
		}
	}
	a := pt.Allocator()
	sink := 0
	for _, tc := range []struct {
		name   string
		budget float64
		op     func()
	}{
		{"Reserve joining + Release not emptying", 0, func() {
			r, err := pt.Reserve(2, 16, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := pt.Release(r); err != nil {
				t.Fatal(err)
			}
		}},
		{"Defragment", 0, func() { sink += a.Defragment() }},
		{"FreeSlots + TotalWeight", 0, func() { sink += a.FreeSlots() + a.TotalWeight() }},
		{"CanAllocate", 0, func() {
			if !a.CanAllocate(8, 300) || a.CanAllocate(2, 1) {
				t.Fatal("wrong capacity answer")
			}
		}},
		{"CheckInvariants", 0, func() {
			if err := pt.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}},
		// The release empties the sequence and defragments; the next
		// Allocate reuses its record.
		{"Allocate + RemoveWeight", 0, func() {
			s, err := a.Allocate(9, 32, 300)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.RemoveWeight(s.ID, 300); err != nil {
				t.Fatal(err)
			}
		}},
		// Two transactions: the join dirties the table, the release
		// dirties it back.
		{"2 x BeginProgram + delivery", 0, func() {
			r, err := pt.Reserve(2, 16, 1)
			if err != nil {
				t.Fatal(err)
			}
			program(t, pt)
			if err := pt.Release(r); err != nil {
				t.Fatal(err)
			}
			program(t, pt)
		}},
		{"2 x Apply", 0, func() {
			r, err := pt.Reserve(2, 16, 1)
			if err != nil {
				t.Fatal(err)
			}
			pt.Apply()
			if err := pt.Release(r); err != nil {
				t.Fatal(err)
			}
			pt.Apply()
			if pt.Dirty() {
				t.Fatal("Apply left the port dirty")
			}
		}},
	} {
		tc.op() // grow slices to their steady capacity
		if allocs := testing.AllocsPerRun(200, tc.op); allocs > tc.budget {
			t.Errorf("%s allocates %.2f objects per op, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
	_ = sink
}

// program opens a programming transaction on a dirty port and delivers
// every block of it, as a programmer's SMPs would arrive.
func program(t *testing.T, pt *core.PortTable) {
	d, err := pt.BeginProgram()
	if err != nil || len(d.Blocks()) == 0 {
		t.Fatalf("BeginProgram on a dirty port: %d blocks, error %v", len(d.Blocks()), err)
	}
	for _, b := range d.Blocks() {
		if _, err := pt.DeliverBlock(d.Version, b.Index, len(d.Blocks()), b.Entries); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllocBudgetInbandProgram gates the in-band control transaction
// itself: with the delivery pool and the event queue warm, opening a
// transaction (BeginProgram), rendering every changed block to its
// 256 wire bytes and posting it (InbandProgrammer.Program), and
// landing it — parse, DeliverBlock, table swap, the chain check —
// allocates nothing, for deltas of one to four blocks.  Each SMP used
// to cost seven objects and each delta one more.
func TestAllocBudgetInbandProgram(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets hold only without race instrumentation")
	}
	var eng sim.Engine
	prog := &subnet.InbandProgrammer{Engine: &eng}
	id := admission.SwitchPortID(3, 1)
	pt := core.NewPortTable(arbtable.New(arbtable.UnlimitedHigh))
	// Three resident sequences, joined and left below (which allocates
	// nothing) with one unit of weight per entry so that every entry
	// changes: distance 64 has one entry, distance 32 two entries two
	// blocks apart, distance 16 one entry in every block.
	join := map[int][][2]int{ // blocks -> (VL, distance) of the sequences to join
		1: {{0, 64}},
		2: {{1, 32}},
		3: {{1, 32}, {0, 64}},
		4: {{2, 16}},
	}
	for _, s := range [][2]int{{1, 32}, {0, 64}, {2, 16}} {
		if _, err := pt.Reserve(uint8(s[0]), s[1], 10); err != nil {
			t.Fatal(err)
		}
	}
	transact := func(want int) {
		d, err := pt.BeginProgram()
		if err != nil || len(d.Blocks()) != want {
			t.Fatalf("BeginProgram: %d blocks (want %d), error %v", len(d.Blocks()), want, err)
		}
		if err := prog.Program(id, pt, d); err != nil {
			t.Fatal(err)
		}
		for eng.Step() {
		}
		if pt.Programming() || pt.Dirty() {
			t.Fatal("delta did not land")
		}
	}
	transact(4) // the resident population itself
	for blocks := 1; blocks <= core.NumHighBlocks; blocks++ {
		var held [2]core.Reservation
		allocs := testing.AllocsPerRun(200, func() {
			for i, s := range join[blocks] {
				r, err := pt.Reserve(uint8(s[0]), s[1], 64/s[1])
				if err != nil {
					t.Fatal(err)
				}
				held[i] = r
			}
			transact(blocks)
			for i := range join[blocks] {
				if err := pt.Release(held[i]); err != nil {
					t.Fatal(err)
				}
			}
			transact(blocks)
		})
		if allocs != 0 {
			t.Errorf("two in-band transactions of %d blocks allocate %.2f objects, want 0", blocks, allocs)
		}
	}
	if want := pt.Stats().Blocks; int64(prog.Costs.MADs) != want {
		t.Errorf("%d MADs accounted, %d blocks delivered", prog.Costs.MADs, want)
	}
}

// admitLoopK8 is the closed admission loop of the benchmark's admit-k8
// workload: the control state of a k=8 fat-tree filled to its
// reservation cap, then one offered request per step; a refusal tears
// down four random live connections.
type admitLoopK8 struct {
	adm  *admission.Controller
	src  *traffic.Source
	rng  *rand.Rand
	live []*admission.Conn
}

func newAdmitLoopK8(t *testing.T) *admitLoopK8 {
	const payload, seed, fillPerHost = 256, 7, 128
	topo, err := topology.Spec{Class: topology.FatTree, K: 8}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := fabric.BuildControl(fabric.DefaultConfig(topo.NumSwitches, payload, seed), topo)
	if err != nil {
		t.Fatal(err)
	}
	l := &admitLoopK8{
		adm: cs.Adm,
		src: traffic.NewSource(sl.DefaultLevels, topo.NumHosts(), seed+1),
		rng: rand.New(rand.NewSource(seed + 3)),
	}
	for i := 0; i < fillPerHost*topo.NumHosts(); i++ {
		if conn, err := l.adm.Admit(l.src.Next()); err == nil {
			l.live = append(l.live, conn)
		}
	}
	return l
}

func (l *admitLoopK8) step(t *testing.T) {
	conn, err := l.adm.Admit(l.src.Next())
	if err == nil {
		l.live = append(l.live, conn)
		return
	}
	for j := 0; j < 4 && len(l.live) > 0; j++ {
		k := l.rng.Intn(len(l.live))
		victim := l.live[k]
		l.live[k] = l.live[len(l.live)-1]
		l.live = l.live[:len(l.live)-1]
		if err := l.adm.Release(victim); err != nil {
			t.Fatal(err)
		}
	}
}

// admitLoopAllocBudget is the heap allocations one offered request of
// the closed loop may cost, releases included (0.8 of them per request
// near the cap): the connection with its hop list (one object) when it
// is admitted, and the error of a refusal — one object, the refusal's
// text being rendered only on demand (TestAllocBudgetAdmitRefused).
// Sequence records are recycled per port, the live ledger is a slice,
// and a release finds its sequence through the token's record, so
// nothing else allocates once the ports hold as many records as they
// ever need.  It was 57 with the array/map allocator, 15 while the
// route walk, the hop list and every Delta were objects of their own,
// 3.0 while a refusal for lack of entries still formatted its text, and
// 2.0 while every fresh placement allocated its Sequence; the loop
// measures 1.04 (AllocsPerRun reports 1), and the ceiling is that.
const admitLoopAllocBudget = 1

// TestAllocBudgetAdmitRelease gates a whole admission transaction.
func TestAllocBudgetAdmitRelease(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets hold only without race instrumentation")
	}
	if testing.Short() {
		t.Skip("fills a k=8 control state")
	}
	l := newAdmitLoopK8(t)
	for i := 0; i < 2000; i++ {
		l.step(t) // settle at the cap
	}
	allocs := testing.AllocsPerRun(20000, func() { l.step(t) })
	t.Logf("%.2f allocs per offered request", allocs)
	if allocs > admitLoopAllocBudget {
		t.Errorf("closed admission loop allocates %.2f objects per offered request, budget %d", allocs, admitLoopAllocBudget)
	}
	if err := l.adm.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestAllocBudgetAdmitRefused gates a refusal: on the closed loop's
// control state, settled at the cap, a request that every hop but the
// last can take — the last one out of table entries — costs at most its
// hopError, and leaves every table as it was.
func TestAllocBudgetAdmitRefused(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets hold only without race instrumentation")
	}
	if testing.Short() {
		t.Skip("fills a k=8 control state")
	}
	l := newAdmitLoopK8(t)
	for i := 0; i < 2000; i++ {
		l.step(t)
	}
	adm := l.adm
	// lastHop draws requests until one is refused for lack of entries at
	// the last hop of its path; admitted ones are released again.
	lastHop := func() traffic.Request {
		for i := 0; i < 100_000; i++ {
			req := l.src.Next()
			conn, err := adm.Admit(req)
			if err == nil {
				if err := adm.Release(conn); err != nil {
					t.Fatal(err)
				}
				continue
			}
			var hop, of int
			if _, serr := fmt.Sscanf(err.Error(), "admission: hop %d/%d", &hop, &of); serr == nil && hop == of && errors.Is(err, core.ErrNoSpace) {
				return req
			}
		}
		t.Fatal("no request refused for lack of entries at its last hop")
		return traffic.Request{}
	}
	tables := func() (out [][2][core.TableSize]arbtable.Entry) {
		add := func(pt *core.PortTable) {
			out = append(out, [2][core.TableSize]arbtable.Entry{pt.Allocator().Table().High, pt.Active().High})
		}
		for _, pt := range adm.Ports().Host {
			add(pt)
		}
		for _, row := range adm.Ports().Switch {
			for _, pt := range row {
				add(pt)
			}
		}
		return out
	}
	req := lastHop()
	before := tables()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := adm.Admit(req); !errors.Is(err, core.ErrNoSpace) {
			t.Fatalf("Admit(%+v) = %v, want a refusal for lack of entries", req, err)
		}
	})
	t.Logf("%.2f allocs per refusal at the last hop", allocs)
	if allocs > 1 {
		t.Errorf("a refusal at the last hop allocates %.2f objects, budget 1 (its hopError)", allocs)
	}
	if after := tables(); !reflect.DeepEqual(after, before) {
		t.Error("a refusal at the last hop changed a table")
	}
	if err := adm.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// churnLoopK8 is the benchmark's churn-inband-k8 workload in miniature:
// Poisson connection arrivals on a live k=8 fat-tree, every admission
// through AdmitWithRetry, every table delta programmed in-band as SMPs
// on the control lane, exponential holds, ReleaseConnection.
type churnLoopK8 struct {
	net  *fabric.Network
	prog *subnet.InbandProgrammer
	src  *traffic.Source
	rng  *rand.Rand

	arrivals, admitted, resolved int
}

func newChurnLoopK8(t *testing.T) *churnLoopK8 {
	const payload, seed = 512, 7
	topo, err := topology.Spec{Class: topology.FatTree, K: 8}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	net, err := fabric.NewWithTopology(fabric.DefaultConfig(topo.NumSwitches, payload, seed), topo)
	if err != nil {
		t.Fatal(err)
	}
	m := subnet.NewManager(topo)
	m.Routes = net.Routes
	l := &churnLoopK8{
		net:  net,
		prog: subnet.NewInbandProgrammer(net.Ctrl, m),
		src:  traffic.NewSource(sl.DefaultLevels, topo.NumHosts(), seed+1),
		rng:  rand.New(rand.NewSource(seed)),
	}
	net.Adm.SetProgrammer(l.prog)
	net.Start()
	net.Ctrl.After(1, l.arrive)
	return l
}

// arrive starts one lifecycle and schedules the next arrival (mean gap
// 512 BT, mean hold 65 536 BT: the benchmark's figures).
func (l *churnLoopK8) arrive() {
	net, eng := l.net, l.net.Ctrl
	req, hold := l.src.Next(), 1+int64(l.rng.ExpFloat64()*65_536)
	eng.After(1+int64(l.rng.ExpFloat64()*512), l.arrive)
	l.arrivals++
	net.Adm.AdmitWithRetry(eng, req, admission.DefaultRetryPolicy(), func(conn *admission.Conn, err error) {
		if err != nil {
			l.resolved++
			return
		}
		l.admitted++
		fl := net.AddConnection(conn)
		eng.After(4096, func() { net.StartFlow(fl) })
		eng.After(4096+hold, func() {
			net.ReleaseConnection(conn, fl, func() { l.resolved++ })
		})
	})
}

// run simulates until n more lifecycles have arrived.
func (l *churnLoopK8) run(n int) {
	target := l.arrivals + n
	l.net.RunWhile(func() bool { return l.arrivals < target })
}

// churnLifecycleAllocBudget is the heap allocations one connection
// lifecycle of the churn loop may cost, everything included: the
// arrival and retry events, the connection, its flow (one record, its
// delay statistics inline), a Sequence per fresh placement on ≈ 5 hops, ≈ 30
// SMPs out and back, the release.  It was 248 when every SMP cost seven
// objects, 18.9 while refused attempts placed sequences and rolled them
// back, and 12.7 while a flow cost four objects and an allocator grew
// its two sequence lists separately; the ceiling sits just above what
// the loop measures (9.7).  The bytes are gated too, since churn keeps
// every released flow: a lifecycle costs 804 bytes with a 192-byte
// Flow.  It cost 1 151 while a Flow was a 368-byte record, and 851 with
// a 240-byte one and today's connection record, so the ceiling fails a
// record that grows back into the 240-byte class.
const (
	churnLifecycleAllocBudget = 11
	churnLifecycleByteBudget  = 840
)

// TestAllocBudgetChurnLifecycle gates the in-band control transaction
// end to end.
func TestAllocBudgetChurnLifecycle(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets hold only without race instrumentation")
	}
	if testing.Short() {
		t.Skip("runs connection churn on a k=8 fabric")
	}
	l := newChurnLoopK8(t)
	l.run(3000) // past the first holds: arrivals and releases balance
	const lifecycles = 4000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l.run(lifecycles)
	runtime.ReadMemStats(&after)
	perLifecycle := float64(after.Mallocs-before.Mallocs) / lifecycles
	bytesPerLifecycle := float64(after.TotalAlloc-before.TotalAlloc) / lifecycles
	t.Logf("%.1f allocs, %.0f bytes per lifecycle; %d of %d admitted, %d MADs",
		perLifecycle, bytesPerLifecycle, l.admitted, l.arrivals, l.prog.Costs.MADs)
	if perLifecycle > churnLifecycleAllocBudget {
		t.Errorf("churn loop allocates %.1f objects per lifecycle, budget %d", perLifecycle, churnLifecycleAllocBudget)
	}
	if bytesPerLifecycle > churnLifecycleByteBudget {
		t.Errorf("churn loop allocates %.0f bytes per lifecycle, budget %d", bytesPerLifecycle, churnLifecycleByteBudget)
	}
	if err := l.net.Adm.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// fatTreeRoutes builds a k-ary fat-tree and its routes.
func fatTreeRoutes(t *testing.T, k int) (*topology.Topology, *routing.Routes) {
	topo, err := topology.GenerateFatTree(k)
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.ComputeFor(topo)
	if err != nil {
		t.Fatal(err)
	}
	return topo, r
}

// The heap a k=8 CDG proof may cost: a dozen slices (destinations, the
// dense channel index, the done bits, the walk, the recorded edges and
// their growth, CSR offsets and successors, colours, the DFS stack), at
// most 150 kB in all.  The fat-tree's hop VLs are plane-separable, so
// the proof walks base VL 0 alone (75 kB); walking all 15 base VLs costs
// 0.49 MB and fails the gate.  The map-based walker cost 11 205 objects
// and 2.79 MB, one adjacency slice per channel.
const (
	cdgVerifyAllocBudget = 16
	cdgVerifyByteBudget  = 150_000
	// cdgVerifyGrowth bounds how many more objects k=8 may cost than
	// k=4: only growing slices add objects as the fabric grows.
	cdgVerifyGrowth = 4
)

// TestAllocBudgetCDGVerify gates the deadlock-freedom proof every
// workload set-up, -exp scale point and failover repair runs.
func TestAllocBudgetCDGVerify(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets hold only without race instrumentation")
	}
	perProof := func(k int) (allocs float64, bytes uint64) {
		topo, r := fatTreeRoutes(t, k)
		proof := func() {
			if _, err := cdg.Verify(topo, r); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(20, proof)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			proof()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	allocs4, _ := perProof(4)
	allocs8, bytes8 := perProof(8)
	t.Logf("k=4: %.0f objects; k=8: %.0f objects, %d bytes per proof", allocs4, allocs8, bytes8)
	if allocs8 > cdgVerifyAllocBudget {
		t.Errorf("a k=8 proof allocates %.0f objects, budget %d", allocs8, cdgVerifyAllocBudget)
	}
	if bytes8 > cdgVerifyByteBudget {
		t.Errorf("a k=8 proof allocates %d bytes, budget %d", bytes8, cdgVerifyByteBudget)
	}
	if allocs8-allocs4 > cdgVerifyGrowth {
		t.Errorf("k=8 proof allocates %.0f objects, k=4 %.0f: more than slice growth", allocs8, allocs4)
	}
}
