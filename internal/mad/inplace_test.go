package mad

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/arbtable"
)

// The in-place codec (EncodeHighBlock, DecodeHighBlock) and the
// allocating one (HighBlockSMP + Marshal; Unmarshal + SplitArbModifier
// + DecodeArbBlock) share their primitives; these helpers hold them to
// the same bytes, the same values and the same verdict on every input,
// valid or not.

// diffEncode renders one block both ways and compares.  It returns the
// wire form when the inputs were encodable.
func diffEncode(t *testing.T, version uint64, index, total int, entries []arbtable.Entry) ([]byte, bool) {
	t.Helper()
	var want []byte
	pkt, wantErr := HighBlockSMP(version, index, total, entries)
	if wantErr == nil {
		want, wantErr = pkt.Marshal()
	}
	var wire [Size]byte
	for i := range wire {
		wire[i] = 0xa5 // stale bytes of a recycled buffer
	}
	stale := wire
	err := EncodeHighBlock(&wire, MethodSet, version, index, total, entries)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("encode(v=%d, block %d of %d, %d entries): in place %v, allocating %v",
			version, index, total, len(entries), err, wantErr)
	}
	if err != nil {
		if wire != stale {
			t.Fatalf("encode(block %d of %d, %d entries) failed but wrote to the buffer", index, total, len(entries))
		}
		return nil, false
	}
	if !bytes.Equal(wire[:], want) {
		t.Fatalf("encode(v=%d, block %d of %d): in-place wire differs from HighBlockSMP.Marshal\n got %x\nwant %x",
			version, index, total, wire, want)
	}
	return want, true
}

// diffDecode parses raw both ways and compares: same verdict, and on
// success the same version, index, total and entries.
func diffDecode(t *testing.T, raw []byte) {
	t.Helper()
	var (
		wantVersion      uint64
		wantIdx, wantTot int
		wantEntries      []arbtable.Entry
	)
	pkt, wantErr := Unmarshal(raw)
	if wantErr == nil {
		var ok bool
		wantVersion = pkt.Header.TID
		if wantIdx, wantTot, ok = SplitArbModifier(pkt.Header.AttrModifier); !ok {
			wantErr = errBadModifier
		} else {
			wantEntries, wantErr = DecodeArbBlock(pkt.Data)
		}
	}
	var out [ArbBlockEntries]arbtable.Entry
	version, index, total, err := DecodeHighBlock(raw, &out)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("decode of %d bytes (modifier %x): in place %v, allocating %v", len(raw), modifierOf(raw), err, wantErr)
	}
	if err != nil {
		return
	}
	if version != wantVersion || index != wantIdx || total != wantTot {
		t.Fatalf("decode: in place (v=%d, block %d of %d), allocating (v=%d, block %d of %d)",
			version, index, total, wantVersion, wantIdx, wantTot)
	}
	for i, e := range wantEntries {
		if out[i] != e {
			t.Fatalf("decode: entry %d in place %v, allocating %v", i, out[i], e)
		}
	}
}

// errBadModifier stands for SplitArbModifier's ok == false; only the
// verdict is compared.
var errBadModifier = errors.New("modifier names no high-table block")

func modifierOf(raw []byte) []byte {
	if len(raw) < 24 {
		return nil
	}
	return raw[20:24]
}

// TestHighBlockInPlaceDifferential: random (version, index, total,
// entries), in and out of range, encode byte-identically or fail with
// the same error; the wire, and truncated, over-long and
// modifier-damaged copies of it, decode to the same values or are
// rejected by both decoders — never a panic.
func TestHighBlockInPlaceDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	encoded := 0
	for trial := 0; trial < 5000; trial++ {
		version := rng.Uint64()
		index := rng.Intn(NumHighBlocks+4) - 2
		total := rng.Intn(NumHighBlocks+4) - 1
		entries := make([]arbtable.Entry, rng.Intn(ArbBlockEntries+3))
		for i := range entries {
			// VLs above 15 exercise the nibble mask.
			entries[i] = arbtable.Entry{VL: uint8(rng.Intn(256)), Weight: uint8(rng.Intn(256))}
		}
		wire, ok := diffEncode(t, version, index, total, entries)
		if !ok {
			continue
		}
		encoded++
		diffDecode(t, wire)
		diffDecode(t, wire[:rng.Intn(Size)])                         // short
		diffDecode(t, append(wire[:Size:Size], byte(rng.Intn(256)))) // over-long
		bad := append([]byte(nil), wire...)
		bad[20+rng.Intn(4)] = uint8(rng.Intn(256)) // block number or total damaged
		diffDecode(t, bad)
		bad[rng.Intn(Size)] ^= 1 << rng.Intn(8) // one more bit anywhere
		diffDecode(t, bad)
	}
	if encoded < 500 {
		t.Fatalf("only %d of 5000 trials were encodable; the generator is off", encoded)
	}
	diffDecode(t, nil)
	diffDecode(t, make([]byte, Size)) // all zero: modifier 0 names no block
}

// FuzzHighBlockCodec runs the same differential on fuzzer-chosen
// inputs: the typed arguments through both encoders, then the wire —
// cut or extended to an arbitrary length and with one byte replaced —
// through both decoders.
func FuzzHighBlockCodec(f *testing.F) {
	f.Add(uint64(42), 0, 1, []byte{1, 10, 2, 20}, Size, 0, byte(0))
	f.Add(uint64(1)<<63, 3, 4, bytes.Repeat([]byte{0x0e, 0xff}, ArbBlockEntries), Size, 23, byte(9))
	f.Add(uint64(7), 4, 4, []byte{}, Size, 0, byte(0))         // index out of range
	f.Add(uint64(7), 0, 5, []byte{}, Size, 0, byte(0))         // total out of range
	f.Add(uint64(7), 1, 2, make([]byte, 40), Size, 0, byte(0)) // 20 entries
	f.Add(uint64(7), 1, 2, []byte{3, 3}, 17, 0, byte(0))       // short wire
	f.Add(uint64(7), 1, 2, []byte{3, 3}, Size+9, 20, byte(0))  // over-long wire
	f.Fuzz(func(t *testing.T, version uint64, index, total int, payload []byte, length, at int, with byte) {
		entries := make([]arbtable.Entry, len(payload)/2)
		for i := range entries {
			entries[i] = arbtable.Entry{VL: payload[2*i], Weight: payload[2*i+1]}
		}
		wire, ok := diffEncode(t, version, index, total, entries)
		if !ok {
			return
		}
		diffDecode(t, wire)
		if length < 0 || length > 2*Size {
			return
		}
		raw := make([]byte, length)
		copy(raw, wire)
		if at >= 0 && at < length {
			raw[at] = with
		}
		diffDecode(t, raw)
	})
}

// TestHighBlockInPlaceAllocatesNothing is the point of the in-place
// forms: a block's round trip through its wire bytes costs no heap
// object (HighBlockSMP + Marshal + Unmarshal + DecodeArbBlock cost six).
func TestHighBlockInPlaceAllocatesNothing(t *testing.T) {
	var (
		block [ArbBlockEntries]arbtable.Entry
		wire  [Size]byte
		out   [ArbBlockEntries]arbtable.Entry
	)
	for i := range block {
		block[i] = arbtable.Entry{VL: uint8(i % 15), Weight: uint8(7 * i)}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := EncodeHighBlock(&wire, MethodSet, 9, 2, 3, block[:]); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := DecodeHighBlock(wire[:], &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || out != block {
		t.Errorf("in-place round trip: %.0f allocs/op (want 0), entries intact %v", allocs, out == block)
	}
}
