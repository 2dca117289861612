package faults

import (
	"encoding/binary"
	"testing"
)

// FuzzFaultSchedule drives an injector with a fuzzer-chosen
// configuration, window schedule and query sequence, and checks the
// properties everything downstream depends on:
//
//   - determinism: replaying the identical schedule and query sequence
//     on a fresh injector yields bit-identical fates and stats;
//   - soundness of window queries: an end is returned only when it
//     lies strictly after the query time, and BlockedUntil is the max
//     of the down and stall answers, never exceeding the horizon;
//   - fate sanity: corrupt fates always name a byte inside a MAD with
//     a non-zero mask, delays are within the configured bound, and a
//     dropped packet suffers no further fate.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(int64(1), uint16(100), uint16(50), uint16(50), uint16(100), uint16(64), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(42), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), []byte{0xff, 0x00, 0x80})
	f.Add(int64(-9), uint16(1000), uint16(1000), uint16(1000), uint16(1000), uint16(1), []byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})

	f.Fuzz(func(t *testing.T, seed int64, drop, dup, corrupt, reorder, maxReorder uint16, script []byte) {
		cfg := Config{
			Seed:         seed,
			Drop:         float64(drop%1001) / 1000,
			Duplicate:    float64(dup%1001) / 1000,
			Corrupt:      float64(corrupt%1001) / 1000,
			Reorder:      float64(reorder%1001) / 1000,
			MaxReorderBT: int64(maxReorder),
		}
		run := func() (*Injector, []Fate, []int64) {
			in := New(cfg)
			// The script doubles as a window schedule and a query
			// sequence: 5-byte records of (op, link, a, b).
			for i := 0; i+5 <= len(script); i += 5 {
				link := int32(int8(script[i+1]))
				a := int64(binary.LittleEndian.Uint16(script[i+2 : i+4]))
				b := a + int64(script[i+4])
				if script[i]%2 == 0 {
					in.AddLinkDown(link, a, b)
				} else {
					in.AddStall(link, a, b)
				}
			}
			var fates []Fate
			var ends []int64
			for i := 0; i+2 <= len(script); i += 2 {
				link := int32(int8(script[i]))
				at := int64(script[i+1]) * 7
				fates = append(fates, in.SMPFate(link))
				ends = append(ends, in.DownUntil(link, at), coveringEnd(in.stalls, link, at), in.BlockedUntil(link, at))
			}
			return in, fates, ends
		}

		in1, fates1, ends1 := run()
		in2, fates2, ends2 := run()
		if in1.Stats() != in2.Stats() {
			t.Fatalf("stats not deterministic: %+v vs %+v", in1.Stats(), in2.Stats())
		}
		for i := range fates1 {
			if fates1[i] != fates2[i] {
				t.Fatalf("fate %d not deterministic: %+v vs %+v", i, fates1[i], fates2[i])
			}
		}
		for i := range ends1 {
			if ends1[i] != ends2[i] {
				t.Fatalf("window answer %d not deterministic: %d vs %d", i, ends1[i], ends2[i])
			}
		}

		limit := horizon(in1)
		qi := 0
		for i := 0; i+2 <= len(script); i += 2 {
			link := int32(int8(script[i]))
			at := int64(script[i+1]) * 7
			f := fates1[qi/3]
			down, stall, blocked := ends1[qi], ends1[qi+1], ends1[qi+2]
			qi += 3

			if f.Drop && (f.Duplicate || f.Corrupt() || f.DelayBT != 0) {
				t.Fatalf("dropped packet with extra fate: %+v", f)
			}
			if f.Corrupt() && (f.CorruptMask == 0 || f.CorruptByte >= 256) {
				t.Fatalf("unsound corrupt fate: %+v", f)
			}
			if f.DelayBT < 0 || f.DelayBT > cfg.MaxReorderBT {
				t.Fatalf("delay %d outside [0, %d]", f.DelayBT, cfg.MaxReorderBT)
			}
			for _, end := range []int64{down, stall, blocked} {
				if end != 0 && end <= at {
					t.Fatalf("link %d at %d: window end %d not after query time", link, at, end)
				}
				if end > limit {
					t.Fatalf("window end %d beyond horizon %d", end, limit)
				}
			}
			want := down
			if stall > want {
				want = stall
			}
			if blocked != want {
				t.Fatalf("BlockedUntil %d != max(down %d, stall %d)", blocked, down, stall)
			}
		}
	})
}
