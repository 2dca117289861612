package mad

import (
	"math/rand"
	"testing"

	"repro/internal/arbtable"
	"repro/internal/core"
)

// fullTableSMPs builds the SMP set of a non-trivially filled table.
func fullTableSMPs(tb testing.TB, version uint64) ([]*Packet, *arbtable.Table) {
	tb.Helper()
	table := arbtable.New(arbtable.UnlimitedHigh)
	alloc := core.NewAllocator(table)
	for i, d := range []int{2, 4, 16, 64} {
		if _, err := alloc.Allocate(uint8(i), d, 60+i*40); err != nil {
			tb.Fatal(err)
		}
	}
	pkts, err := HighTableSMPs(version, table)
	if err != nil {
		tb.Fatal(err)
	}
	return pkts, table
}

// TestHighTableRoundTripProperty: across many random permutations the
// block set decodes order-free to the programmed table, while any
// dropped, duplicated or cross-version set is rejected.  This is the
// no-torn-tables contract of the wire protocol.
func TestHighTableRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		version := uint64(rng.Intn(1 << 20))
		pkts, table := fullTableSMPs(t, version)

		shuffled := append([]*Packet(nil), pkts...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		back, err := DecodeHighTable(shuffled)
		if err != nil {
			t.Fatalf("trial %d: shuffled decode failed: %v", trial, err)
		}
		if back.High != table.High {
			t.Fatalf("trial %d: shuffled decode differs from programmed table", trial)
		}

		// Block by block, the in-place codec writes the same wire bytes
		// and reads the same entries back.
		for b := 0; b < NumHighBlocks; b++ {
			wire, ok := diffEncode(t, version, b, NumHighBlocks, table.High[b*ArbBlockEntries:(b+1)*ArbBlockEntries])
			if !ok {
				t.Fatalf("trial %d: block %d did not encode", trial, b)
			}
			diffDecode(t, wire)
		}

		// Drop one block: torn.
		drop := rng.Intn(len(shuffled))
		partial := append(append([]*Packet(nil), shuffled[:drop]...), shuffled[drop+1:]...)
		if _, err := DecodeHighTable(partial); err == nil {
			t.Fatalf("trial %d: decode accepted a set missing block %d", trial, drop)
		}

		// Duplicate one block in place of another: torn.
		dup := append([]*Packet(nil), shuffled...)
		dup[rng.Intn(len(dup))] = dup[rng.Intn(len(dup))]
		if hasDuplicate(dup) {
			if _, err := DecodeHighTable(dup); err == nil {
				t.Fatalf("trial %d: decode accepted duplicated blocks", trial)
			}
		}

		// Mix blocks of two versions: torn.
		other, _ := fullTableSMPs(t, version+1)
		mixed := append([]*Packet(nil), shuffled...)
		mixed[rng.Intn(len(mixed))] = other[rng.Intn(len(other))]
		if _, err := DecodeHighTable(mixed); err == nil {
			t.Fatalf("trial %d: decode accepted blocks of two versions", trial)
		}
	}
}

func hasDuplicate(pkts []*Packet) bool {
	seen := map[uint32]bool{}
	for _, p := range pkts {
		if seen[p.Header.AttrModifier] {
			return true
		}
		seen[p.Header.AttrModifier] = true
	}
	return false
}

// FuzzHighTableDecode feeds arbitrary bytes through the full wire
// path: slice into MAD-sized packets, unmarshal, decode.  The decoder
// must reject malformed sets with an error, never panic, any set it
// accepts must re-encode to the same blocks, and the in-place block
// decoder must agree with the allocating one on every slice.
func FuzzHighTableDecode(f *testing.F) {
	marshalSet := func(pkts []*Packet) []byte {
		var out []byte
		for _, p := range pkts {
			wire, err := p.Marshal()
			if err != nil {
				f.Fatal(err)
			}
			out = append(out, wire...)
		}
		return out
	}
	valid, _ := fullTableSMPs(f, 42)
	f.Add(marshalSet(valid))
	f.Add(marshalSet(valid[:NumHighBlocks-1]))                           // partial
	f.Add(marshalSet([]*Packet{valid[0], valid[0], valid[1]}))           // duplicate
	f.Add(marshalSet([]*Packet{valid[3], valid[2], valid[1], valid[0]})) // reordered
	other, _ := fullTableSMPs(f, 43)
	f.Add(marshalSet([]*Packet{valid[0], other[1], valid[2], valid[3]})) // mixed versions
	f.Add([]byte("not a mad at all"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Whatever the bytes, the in-place decoder and the allocating one
		// agree: on the whole input (any length) and on every MAD-sized
		// slice of it.
		diffDecode(t, raw)
		var pkts []*Packet
		for off := 0; off+Size <= len(raw); off += Size {
			diffDecode(t, raw[off:off+Size])
			p, err := Unmarshal(raw[off : off+Size])
			if err != nil {
				continue
			}
			pkts = append(pkts, p)
		}
		table, err := DecodeHighTable(pkts)
		if err != nil {
			return
		}
		// Accepted: by the torn-table rules this must be a complete
		// single-version set, so re-encoding it reproduces every block.
		version := pkts[0].Header.TID
		again, err := HighTableSMPs(version, table)
		if err != nil {
			t.Fatalf("accepted table does not re-encode: %v", err)
		}
		byIndex := map[int][]byte{}
		for _, p := range again {
			idx, _, _ := SplitArbModifier(p.Header.AttrModifier)
			byIndex[idx] = p.Data
		}
		for _, p := range pkts {
			idx, _, ok := SplitArbModifier(p.Header.AttrModifier)
			if !ok {
				continue
			}
			want, ok := byIndex[idx]
			if !ok {
				t.Fatalf("accepted block %d missing from re-encode", idx)
			}
			if string(p.Data[:2*ArbBlockEntries]) != string(want[:2*ArbBlockEntries]) {
				t.Fatalf("block %d: accepted payload differs from re-encode", idx)
			}
		}
	})
}
