// Package mad implements the wire format of InfiniBand management
// datagrams (MADs) — the packets a subnet manager uses to discover the
// fabric and program the tables the paper's proposal fills in.  It
// covers the subset of IBA 1.0 chapter 13/14 the control plane of this
// repository needs: the common MAD header, subnet-management methods,
// and the attributes NodeInfo, PortInfo, SLtoVLMappingTable and
// VLArbitrationTable.  Linear forwarding tables are costed in MADs
// (subnet.ProgramForwarding), not encoded.
//
// All encodings are big endian (network order) at the offsets the
// specification assigns; every encode has a decode and the pair round
// trips exactly, so programmed state can be read back verbatim.
package mad

import (
	"encoding/binary"
	"fmt"

	"repro/internal/arbtable"
	"repro/internal/sl"
)

// Size is the fixed size of every MAD in bytes.
const Size = 256

// ClassSubnLID is the LID-routed subnet management class.
const ClassSubnLID = 0x01

// Methods.
const (
	MethodSet     = 0x02
	MethodGetResp = 0x81
)

// Attribute IDs (IBA 1.0 table 104).
const (
	AttrVLArbitration = 0x0016
	AttrSLtoVLMapping = 0x0017
)

// smpDataOffset is where SMP attribute data starts within the MAD.
const smpDataOffset = 64

// smpDataSize is the attribute payload capacity of an SMP.
const smpDataSize = 64

// Header is the common MAD header.
type Header struct {
	BaseVersion  uint8
	MgmtClass    uint8
	ClassVersion uint8
	Method       uint8
	Status       uint16
	HopInfo      uint16 // directed-route hop pointer/count
	TID          uint64
	AttrID       uint16
	AttrModifier uint32
}

// Packet is one MAD with its attribute payload.
type Packet struct {
	Header Header
	// Data is the SMP attribute payload (up to 64 bytes).
	Data []byte
}

// Marshal renders the packet into its 256-byte wire form.
func (p *Packet) Marshal() ([]byte, error) {
	if len(p.Data) > smpDataSize {
		return nil, fmt.Errorf("mad: attribute payload %d exceeds %d bytes", len(p.Data), smpDataSize)
	}
	buf := new([Size]byte)
	putHeader(buf, &p.Header)
	copy(buf[smpDataOffset:], p.Data)
	return buf[:], nil
}

// Unmarshal parses a 256-byte wire MAD.
func Unmarshal(buf []byte) (*Packet, error) {
	h, err := parseHeader(buf)
	if err != nil {
		return nil, err
	}
	return &Packet{
		Header: h,
		Data:   append([]byte(nil), buf[smpDataOffset:smpDataOffset+smpDataSize]...),
	}, nil
}

// putHeader writes the common MAD header at the offsets the
// specification assigns.  The reserved bytes are left as they are.
func putHeader(buf *[Size]byte, h *Header) {
	buf[0] = h.BaseVersion
	buf[1] = h.MgmtClass
	buf[2] = h.ClassVersion
	buf[3] = h.Method
	binary.BigEndian.PutUint16(buf[4:6], h.Status)
	binary.BigEndian.PutUint16(buf[6:8], h.HopInfo)
	binary.BigEndian.PutUint64(buf[8:16], h.TID)
	binary.BigEndian.PutUint16(buf[16:18], h.AttrID)
	binary.BigEndian.PutUint32(buf[20:24], h.AttrModifier)
}

// parseHeader reads the common MAD header of a 256-byte wire MAD.
func parseHeader(buf []byte) (Header, error) {
	if len(buf) != Size {
		return Header{}, fmt.Errorf("mad: packet is %d bytes, want %d", len(buf), Size)
	}
	return Header{
		BaseVersion:  buf[0],
		MgmtClass:    buf[1],
		ClassVersion: buf[2],
		Method:       buf[3],
		Status:       binary.BigEndian.Uint16(buf[4:6]),
		HopInfo:      binary.BigEndian.Uint16(buf[6:8]),
		TID:          binary.BigEndian.Uint64(buf[8:16]),
		AttrID:       binary.BigEndian.Uint16(buf[16:18]),
		AttrModifier: binary.BigEndian.Uint32(buf[20:24]),
	}, nil
}

// NodeInfo is the discovery attribute: what kind of device answered
// and how many ports it has.
type NodeInfo struct {
	NodeType uint8 // 1 = channel adapter, 2 = switch
	NumPorts uint8
	GUID     uint64
	LID      uint16 // carried here for the simulator's convenience
}

// Node types.
const (
	NodeTypeCA     = 1
	NodeTypeSwitch = 2
)

// EncodeNodeInfo renders a NodeInfo attribute payload.
func EncodeNodeInfo(n NodeInfo) []byte {
	buf := make([]byte, smpDataSize)
	buf[0] = 1 // base version
	buf[1] = 1 // class version
	buf[2] = n.NodeType
	buf[3] = n.NumPorts
	binary.BigEndian.PutUint64(buf[8:16], n.GUID)
	binary.BigEndian.PutUint16(buf[16:18], n.LID)
	return buf
}

// DecodeNodeInfo parses a NodeInfo payload.
func DecodeNodeInfo(data []byte) (NodeInfo, error) {
	if len(data) < 18 {
		return NodeInfo{}, fmt.Errorf("mad: NodeInfo payload too short (%d)", len(data))
	}
	n := NodeInfo{
		NodeType: data[2],
		NumPorts: data[3],
		GUID:     binary.BigEndian.Uint64(data[8:16]),
		LID:      binary.BigEndian.Uint16(data[16:18]),
	}
	if n.NodeType != NodeTypeCA && n.NodeType != NodeTypeSwitch {
		return NodeInfo{}, fmt.Errorf("mad: unknown node type %d", n.NodeType)
	}
	return n, nil
}

// EncodeSLtoVL packs an SLtoVLMappingTable: 16 service levels to 4-bit
// virtual lanes, two per byte (SL 0 in the high nibble of byte 0).
func EncodeSLtoVL(m sl.Mapping) []byte {
	buf := make([]byte, 8)
	for i := 0; i < arbtable.NumVLs; i++ {
		vl := m.VLFor(uint8(i)) & 0x0f
		if i%2 == 0 {
			buf[i/2] |= vl << 4
		} else {
			buf[i/2] |= vl
		}
	}
	return buf
}

// DecodeSLtoVL unpacks an SLtoVLMappingTable payload.
func DecodeSLtoVL(data []byte) (sl.Mapping, error) {
	var m sl.Mapping
	if len(data) < 8 {
		return m, fmt.Errorf("mad: SLtoVL payload too short (%d)", len(data))
	}
	for i := 0; i < arbtable.NumVLs; i++ {
		b := data[i/2]
		if i%2 == 0 {
			m[i] = b >> 4
		} else {
			m[i] = b & 0x0f
		}
	}
	return m, nil
}

// VL arbitration blocks: the 64-entry high-priority table travels in
// four blocks of 16 entries — the delta granularity of the control
// plane — with the table version (epoch) in the SMP's TID.  The
// attribute modifier carries the block number in its low byte
// (ArbModHighBase+index) and the transaction's total block count in
// the next byte, so a receiving port can tell a complete new-version
// set from a torn one.  Each entry is two bytes: VL in the low nibble
// of the first, weight in the second.
const (
	ArbBlockEntries = 16
	NumHighBlocks   = arbtable.TableSize / ArbBlockEntries
	ArbModHighBase  = 1
)

// ArbModifier packs a high-table block index and the transaction's
// total block count into a VLArbitrationTable attribute modifier.
func ArbModifier(index, total int) uint32 {
	return uint32(ArbModHighBase+index) | uint32(total)<<8
}

// SplitArbModifier is the inverse of ArbModifier.  ok is false when
// the modifier does not name a high-table block.
func SplitArbModifier(mod uint32) (index, total int, ok bool) {
	index = int(mod&0xff) - ArbModHighBase
	total = int(mod >> 8)
	if index < 0 || index >= NumHighBlocks {
		return 0, 0, false
	}
	return index, total, true
}

// arbBlockBytes is the wire size of one 16-entry arbitration block.
const arbBlockBytes = 2 * ArbBlockEntries

// checkArbBlock rejects an entry list longer than one block.
func checkArbBlock(entries []arbtable.Entry) error {
	if len(entries) > ArbBlockEntries {
		return fmt.Errorf("mad: %d entries exceed block size %d", len(entries), ArbBlockEntries)
	}
	return nil
}

// putArbBlock writes a checked entry list into a block's wire bytes;
// dst holds at least arbBlockBytes, and the bytes of entries beyond
// len(entries) stay as they are.
func putArbBlock(dst []byte, entries []arbtable.Entry) {
	_ = dst[arbBlockBytes-1]
	for i, e := range entries {
		dst[2*i] = e.VL & 0x0f
		dst[2*i+1] = e.Weight
	}
}

// parseArbBlock reads one arbitration block into out.
func parseArbBlock(data []byte, out *[ArbBlockEntries]arbtable.Entry) error {
	if len(data) < arbBlockBytes {
		return fmt.Errorf("mad: arbitration block too short (%d)", len(data))
	}
	for i := range out {
		out[i] = arbtable.Entry{VL: data[2*i] & 0x0f, Weight: data[2*i+1]}
	}
	return nil
}

// EncodeArbBlock renders one 16-entry arbitration block.
func EncodeArbBlock(entries []arbtable.Entry) ([]byte, error) {
	if err := checkArbBlock(entries); err != nil {
		return nil, err
	}
	buf := make([]byte, arbBlockBytes)
	putArbBlock(buf, entries)
	return buf, nil
}

// DecodeArbBlock parses one arbitration block.
func DecodeArbBlock(data []byte) ([]arbtable.Entry, error) {
	out := new([ArbBlockEntries]arbtable.Entry)
	if err := parseArbBlock(data, out); err != nil {
		return nil, err
	}
	return out[:], nil
}

// highBlockHeader is the header of an SMP carrying one 16-entry block
// of a high-table transaction: version in the TID, block index and
// total block count in the attribute modifier.
func highBlockHeader(method uint8, version uint64, index, total int) (Header, error) {
	if index < 0 || index >= NumHighBlocks {
		return Header{}, fmt.Errorf("mad: high-table block index %d out of range", index)
	}
	if total < 1 || total > NumHighBlocks {
		return Header{}, fmt.Errorf("mad: high-table block total %d out of range", total)
	}
	return Header{
		BaseVersion: 1, MgmtClass: ClassSubnLID, ClassVersion: 1,
		Method: method, TID: version,
		AttrID:       AttrVLArbitration,
		AttrModifier: ArbModifier(index, total),
	}, nil
}

// HighBlockSMP builds one Set(VLArbitrationTable) SMP carrying one
// 16-entry block of a table transaction.
func HighBlockSMP(version uint64, index, total int, entries []arbtable.Entry) (*Packet, error) {
	h, err := highBlockHeader(MethodSet, version, index, total)
	if err != nil {
		return nil, err
	}
	block, err := EncodeArbBlock(entries)
	if err != nil {
		return nil, err
	}
	return &Packet{Header: h, Data: block}, nil
}

// EncodeHighBlock renders the SMP HighBlockSMP builds straight into
// its 256-byte wire form in wire, every byte of which is overwritten:
// what HighBlockSMP(...).Marshal() returns, without the packet, the
// payload and the buffer.  method is MethodSet for a programming SMP
// and MethodGetResp for a read-back response.  On error wire is
// untouched.
func EncodeHighBlock(wire *[Size]byte, method uint8, version uint64, index, total int, entries []arbtable.Entry) error {
	h, err := highBlockHeader(method, version, index, total)
	if err != nil {
		return err
	}
	if err := checkArbBlock(entries); err != nil {
		return err
	}
	*wire = [Size]byte{}
	putHeader(wire, &h)
	putArbBlock(wire[smpDataOffset:], entries)
	return nil
}

// DecodeHighBlock parses a wire SMP carrying one high-table block —
// Unmarshal, SplitArbModifier and DecodeArbBlock in one pass, with the
// entries written to out instead of allocated.  It returns the table
// version from the TID and the block index and transaction total from
// the attribute modifier; a wire that is not Size bytes or whose
// modifier names no high-table block is an error.  Like the three
// calls it replaces it does not look at the method or the attribute
// ID: the caller knows what it asked for.
func DecodeHighBlock(wire []byte, out *[ArbBlockEntries]arbtable.Entry) (version uint64, index, total int, err error) {
	h, err := parseHeader(wire)
	if err != nil {
		return 0, 0, 0, err
	}
	index, total, ok := SplitArbModifier(h.AttrModifier)
	if !ok {
		return 0, 0, 0, fmt.Errorf("mad: attribute modifier %#x names no high-table block", h.AttrModifier)
	}
	if err := parseArbBlock(wire[smpDataOffset:], out); err != nil {
		return 0, 0, 0, err
	}
	return h.TID, index, total, nil
}

// HighTableSMPs builds the four Set(VLArbitrationTable) SMPs that
// program a port's complete high-priority table as one transaction,
// exactly as a subnet manager would issue them for initial bring-up.
// All four share the table version in their TIDs.
func HighTableSMPs(version uint64, t *arbtable.Table) ([]*Packet, error) {
	var out []*Packet
	for b := 0; b < NumHighBlocks; b++ {
		p, err := HighBlockSMP(version, b, NumHighBlocks, t.High[b*ArbBlockEntries:(b+1)*ArbBlockEntries])
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// DecodeHighTable folds a complete high-table transaction back into a
// table's high-priority entries (the read-back path).  It enforces the
// same torn-table rules a port does: every block must carry the same
// version and claim the full block count, no block may repeat, and all
// four blocks must be present.  Blocks may arrive in any order;
// non-arbitration packets are ignored.
func DecodeHighTable(pkts []*Packet) (*arbtable.Table, error) {
	t := arbtable.New(arbtable.UnlimitedHigh)
	var version uint64
	var staged [NumHighBlocks]bool
	seen := 0
	for _, p := range pkts {
		if p.Header.AttrID != AttrVLArbitration {
			continue
		}
		index, total, ok := SplitArbModifier(p.Header.AttrModifier)
		if !ok {
			continue // low-table or foreign block
		}
		if total != NumHighBlocks {
			return nil, fmt.Errorf("mad: torn high table: block %d claims %d blocks, want %d",
				index, total, NumHighBlocks)
		}
		if seen == 0 {
			version = p.Header.TID
		} else if p.Header.TID != version {
			return nil, fmt.Errorf("mad: torn high table: version %d after %d", p.Header.TID, version)
		}
		if staged[index] {
			return nil, fmt.Errorf("mad: torn high table: duplicate block %d", index)
		}
		lo := index * ArbBlockEntries
		if err := parseArbBlock(p.Data, (*[ArbBlockEntries]arbtable.Entry)(t.High[lo:lo+ArbBlockEntries])); err != nil {
			return nil, err
		}
		staged[index] = true
		seen++
	}
	if seen != NumHighBlocks {
		return nil, fmt.Errorf("mad: high table needs %d blocks, got %d", NumHighBlocks, seen)
	}
	return t, nil
}

// Port states (PortInfo.PortState): the bounds of the specification's
// range, whose Init (2) and Armed (3) states the model never sets.
const (
	PortStateDown   = 1
	PortStateActive = 4
)

// PortInfo is the port attribute subset the control plane uses: the
// assigned LID, the port's state, its neighbor MTU code and its VL
// capability.
type PortInfo struct {
	LID            uint16
	PortState      uint8 // PortStateDown .. PortStateActive
	NeighborMTU    uint8 // MTU code: 1=256 .. 5=4096
	VLCap          uint8 // data VLs implemented
	OperationalVLs uint8 // data VLs enabled by the SM
}

// MTUBytes converts an IBA MTU code to bytes (0 for invalid codes).
func MTUBytes(code uint8) int {
	if code < 1 || code > 5 {
		return 0
	}
	return 256 << (code - 1)
}

// MTUCode converts a byte size to the smallest IBA MTU code that fits
// it, or 0 when the size exceeds 4096.
func MTUCode(bytes int) uint8 {
	for code := uint8(1); code <= 5; code++ {
		if bytes <= MTUBytes(code) {
			return code
		}
	}
	return 0
}

// EncodePortInfo renders a PortInfo attribute payload (LID at offset
// 16, state in the low nibble of byte 32, MTU/VLCap nibbles in byte
// 33, operational VLs in the high nibble of byte 34 — the offsets the
// specification assigns to these fields).
func EncodePortInfo(p PortInfo) []byte {
	buf := make([]byte, smpDataSize)
	binary.BigEndian.PutUint16(buf[16:18], p.LID)
	buf[32] = p.PortState & 0x0f
	buf[33] = (p.NeighborMTU&0x0f)<<4 | (p.VLCap & 0x0f)
	buf[34] = (p.OperationalVLs & 0x0f) << 4
	return buf
}

// DecodePortInfo parses a PortInfo payload.
func DecodePortInfo(data []byte) (PortInfo, error) {
	if len(data) < 35 {
		return PortInfo{}, fmt.Errorf("mad: PortInfo payload too short (%d)", len(data))
	}
	p := PortInfo{
		LID:            binary.BigEndian.Uint16(data[16:18]),
		PortState:      data[32] & 0x0f,
		NeighborMTU:    data[33] >> 4,
		VLCap:          data[33] & 0x0f,
		OperationalVLs: data[34] >> 4,
	}
	if p.PortState < PortStateDown || p.PortState > PortStateActive {
		return PortInfo{}, fmt.Errorf("mad: port state %d out of range", p.PortState)
	}
	return p, nil
}
