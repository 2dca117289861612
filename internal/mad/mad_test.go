package mad

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/arbtable"
	"repro/internal/core"
	"repro/internal/sl"
)

func TestPacketRoundTrip(t *testing.T) {
	p := &Packet{
		Header: Header{
			BaseVersion: 1, MgmtClass: ClassSubnLID, ClassVersion: 1,
			Method: MethodSet, Status: 0, HopInfo: 0x0102,
			TID: 0xdeadbeefcafe, AttrID: AttrSLtoVLMapping, AttrModifier: 7,
		},
		Data: []byte{1, 2, 3, 4},
	}
	wire, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != Size {
		t.Fatalf("wire size = %d, want %d", len(wire), Size)
	}
	q, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if q.Header != p.Header {
		t.Errorf("header round trip: %+v != %+v", q.Header, p.Header)
	}
	if !bytes.Equal(q.Data[:4], p.Data) {
		t.Errorf("data round trip: %v != %v", q.Data[:4], p.Data)
	}
}

func TestPacketRoundTripQuick(t *testing.T) {
	f := func(class, method uint8, status, hop, attr uint16, tid uint64, mod uint32) bool {
		p := &Packet{Header: Header{
			BaseVersion: 1, MgmtClass: class, ClassVersion: 1, Method: method,
			Status: status, HopInfo: hop, TID: tid, AttrID: attr, AttrModifier: mod,
		}}
		wire, err := p.Marshal()
		if err != nil {
			return false
		}
		q, err := Unmarshal(wire)
		return err == nil && q.Header == p.Header
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMarshalRejectsOversizedPayload(t *testing.T) {
	p := &Packet{Data: make([]byte, 65)}
	if _, err := p.Marshal(); err == nil {
		t.Error("65-byte SMP payload accepted")
	}
	if _, err := Unmarshal(make([]byte, 100)); err == nil {
		t.Error("short wire packet accepted")
	}
}

func TestNodeInfoRoundTrip(t *testing.T) {
	n := NodeInfo{NodeType: NodeTypeSwitch, NumPorts: 8, GUID: 0x1122334455667788, LID: 42}
	got, err := DecodeNodeInfo(EncodeNodeInfo(n))
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Errorf("round trip %+v != %+v", got, n)
	}
	if _, err := DecodeNodeInfo([]byte{0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("unknown node type accepted")
	}
	if _, err := DecodeNodeInfo([]byte{1}); err == nil {
		t.Error("short NodeInfo accepted")
	}
}

func TestSLtoVLRoundTrip(t *testing.T) {
	for _, m := range []sl.Mapping{sl.IdentityMapping(), mustCollapsed(t, 4), mustCollapsed(t, 8)} {
		got, err := DecodeSLtoVL(EncodeSLtoVL(m))
		if err != nil {
			t.Fatal(err)
		}
		if got != m {
			t.Errorf("round trip %v != %v", got, m)
		}
	}
	if _, err := DecodeSLtoVL([]byte{1, 2}); err == nil {
		t.Error("short SLtoVL accepted")
	}
}

func mustCollapsed(t *testing.T, n int) sl.Mapping {
	t.Helper()
	m, err := sl.CollapsedMapping(n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestArbBlockRoundTrip(t *testing.T) {
	entries := make([]arbtable.Entry, ArbBlockEntries)
	for i := range entries {
		entries[i] = arbtable.Entry{VL: uint8(i % 15), Weight: uint8(i * 7)}
	}
	wire, err := EncodeArbBlock(entries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeArbBlock(wire)
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: %v != %v", i, got[i], entries[i])
		}
	}
	if _, err := EncodeArbBlock(make([]arbtable.Entry, 33)); err == nil {
		t.Error("33-entry block accepted")
	}
	if _, err := DecodeArbBlock([]byte{1}); err == nil {
		t.Error("short block accepted")
	}
}

// TestHighTableSMPsProgramExactly: the SMPs built from a table filled
// by the paper's algorithm decode back to the identical table — the
// read-back path a subnet manager uses to audit its configuration.
func TestHighTableSMPsProgramExactly(t *testing.T) {
	table := arbtable.New(arbtable.UnlimitedHigh)
	alloc := core.NewAllocator(table)
	for i, d := range []int{2, 8, 32, 64} {
		if _, err := alloc.Allocate(uint8(i), d, 100+i*50); err != nil {
			t.Fatal(err)
		}
	}
	pkts, err := HighTableSMPs(1000, table)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != NumHighBlocks {
		t.Fatalf("got %d SMPs, want %d", len(pkts), NumHighBlocks)
	}
	// Marshal and unmarshal each SMP (full wire round trip).
	var recovered []*Packet
	for _, p := range pkts {
		wire, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		q, err := Unmarshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		recovered = append(recovered, q)
	}
	back, err := DecodeHighTable(recovered)
	if err != nil {
		t.Fatal(err)
	}
	for i := range table.High {
		if back.High[i] != table.High[i] {
			t.Fatalf("slot %d: programmed %v, read back %v", i, table.High[i], back.High[i])
		}
	}
}

func TestDecodeHighTableNeedsAllBlocks(t *testing.T) {
	table := arbtable.New(arbtable.UnlimitedHigh)
	pkts, err := HighTableSMPs(1, table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeHighTable(pkts[:NumHighBlocks-1]); err == nil {
		t.Error("partial table accepted")
	}
}

func TestPortInfoRoundTrip(t *testing.T) {
	p := PortInfo{LID: 300, PortState: PortStateActive, NeighborMTU: 4, VLCap: 15, OperationalVLs: 8}
	got, err := DecodePortInfo(EncodePortInfo(p))
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("round trip %+v != %+v", got, p)
	}
	if _, err := DecodePortInfo([]byte{1, 2}); err == nil {
		t.Error("short PortInfo accepted")
	}
	bad := EncodePortInfo(p)
	bad[32] = 9
	if _, err := DecodePortInfo(bad); err == nil {
		t.Error("invalid port state accepted")
	}
}

func TestMTUCodes(t *testing.T) {
	cases := map[uint8]int{1: 256, 2: 512, 3: 1024, 4: 2048, 5: 4096}
	for code, bytes := range cases {
		if MTUBytes(code) != bytes {
			t.Errorf("MTUBytes(%d) = %d, want %d", code, MTUBytes(code), bytes)
		}
		if MTUCode(bytes) != code {
			t.Errorf("MTUCode(%d) = %d, want %d", bytes, MTUCode(bytes), code)
		}
	}
	if MTUBytes(0) != 0 || MTUBytes(6) != 0 {
		t.Error("invalid codes not rejected")
	}
	if MTUCode(5000) != 0 {
		t.Error("oversized MTU not rejected")
	}
	// Sizes between codes round up.
	if MTUCode(300) != 2 {
		t.Errorf("MTUCode(300) = %d, want 2", MTUCode(300))
	}
}
