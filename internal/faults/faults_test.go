package faults

import (
	"slices"
	"testing"
)

func TestNilInjectorIsPerfect(t *testing.T) {
	var in *Injector
	f := in.SMPFate(7)
	if f.Drop || f.Duplicate || f.Corrupt() || f.DelayBT != 0 {
		t.Errorf("nil injector dealt a fault: %+v", f)
	}
	if in.DownUntil(7, 100) != 0 || in.BlockedUntil(7, 100) != 0 {
		t.Error("nil injector reported a window")
	}
	in.AddLinkDown(7, 1, 2) // must not panic
	in.AddStall(7, 1, 2)
	if in.Stats() != (Stats{}) {
		t.Error("nil injector counted")
	}
}

func TestZeroConfigDealsNoFaults(t *testing.T) {
	in := New(Config{Seed: 99})
	for i := 0; i < 10000; i++ {
		f := in.SMPFate(int32(i % 5))
		if f.Drop || f.Duplicate || f.Corrupt() || f.DelayBT != 0 {
			t.Fatalf("query %d: zero-probability injector dealt %+v", i, f)
		}
	}
	if s := in.Stats(); s.Drops+s.Duplicates+s.Corruptions+s.Reorders != 0 {
		t.Errorf("stats counted faults: %+v", s)
	}
}

func TestFateSequenceIsSeedDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Drop: 0.2, Duplicate: 0.1, Corrupt: 0.15, Reorder: 0.3, MaxReorderBT: 512}
	a, b := New(cfg), New(cfg)
	for i := 0; i < 5000; i++ {
		link := int32(i % 7)
		if fa, fb := a.SMPFate(link), b.SMPFate(link); fa != fb {
			t.Fatalf("query %d diverged: %+v vs %+v", i, fa, fb)
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// A link's fate sequence must not depend on queries other links make
// in between — that is what makes runs reproducible regardless of
// event interleaving.
func TestLinksAreIndependent(t *testing.T) {
	cfg := Config{Seed: 7, Drop: 0.3, Duplicate: 0.2, Corrupt: 0.2, Reorder: 0.2, MaxReorderBT: 100}
	solo := New(cfg)
	var want []Fate
	for i := 0; i < 200; i++ {
		want = append(want, solo.SMPFate(3))
	}
	mixed := New(cfg)
	var got []Fate
	for i := 0; i < 200; i++ {
		mixed.SMPFate(1) // interleaved noise on other links
		got = append(got, mixed.SMPFate(3))
		mixed.SMPFate(9)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d on link 3 changed with interleaving: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestRatesApproximateConfig(t *testing.T) {
	in := New(Config{Seed: 5, Drop: 0.25, Duplicate: 0.1, Corrupt: 0.1, Reorder: 0.2, MaxReorderBT: 64})
	const n = 40000
	for i := 0; i < n; i++ {
		in.SMPFate(1)
	}
	s := in.Stats()
	check := func(name string, got int64, p float64) {
		f := float64(got) / n
		// Non-dropped packets see the later draws, so effective rates
		// for dup/corrupt/reorder are p*(1-drop); allow a wide band.
		lo, hi := p*0.5, p*1.3
		if f < lo || f > hi {
			t.Errorf("%s rate %.4f outside [%.4f, %.4f]", name, f, lo, hi)
		}
	}
	check("drop", s.Drops, 0.25)
	check("dup", s.Duplicates, 0.1*0.75)
	check("corrupt", s.Corruptions, 0.1*0.75)
	check("reorder", s.Reorders, 0.2*0.75)
}

func TestWindows(t *testing.T) {
	in := New(Config{Seed: 1})
	in.AddLinkDown(3, 100, 200)
	in.AddLinkDown(3, 150, 300) // overlapping: furthest end wins
	in.AddStall(3, 250, 400)
	in.AddStall(-4, 50, 60)
	in.AddLinkDown(5, 10, 10) // empty window ignored

	cases := []struct {
		link        int32
		t           int64
		down, stall int64
	}{
		{3, 99, 0, 0},
		{3, 100, 300, 0},
		{3, 199, 300, 0},
		{3, 249, 300, 0},
		{3, 260, 300, 400},
		{3, 399, 0, 400},
		{3, 400, 0, 0},
		{-4, 55, 0, 60},
		{5, 10, 0, 0},
	}
	for _, c := range cases {
		if got := in.DownUntil(c.link, c.t); got != c.down {
			t.Errorf("DownUntil(%d, %d) = %d, want %d", c.link, c.t, got, c.down)
		}
		if got := coveringEnd(in.stalls, c.link, c.t); got != c.stall {
			t.Errorf("stall window end (%d, %d) = %d, want %d", c.link, c.t, got, c.stall)
		}
		wantBlocked := c.down
		if c.stall > wantBlocked {
			wantBlocked = c.stall
		}
		if got := in.BlockedUntil(c.link, c.t); got != wantBlocked {
			t.Errorf("BlockedUntil(%d, %d) = %d, want %d", c.link, c.t, got, wantBlocked)
		}
	}
	if h := horizon(in); h != 400 {
		t.Errorf("horizon = %d, want 400", h)
	}
}

// horizon returns the latest end of any scheduled window, 0 when none.
func horizon(in *Injector) int64 {
	var h int64
	for _, w := range slices.Concat(in.downs, in.stalls) {
		h = max(h, w.to)
	}
	return h
}

func TestCorruptFateAlwaysFlips(t *testing.T) {
	in := New(Config{Seed: 11, Corrupt: 1})
	for i := 0; i < 1000; i++ {
		f := in.SMPFate(2)
		if !f.Corrupt() {
			t.Fatal("corrupt probability 1 dealt an intact packet")
		}
		if f.CorruptMask == 0 {
			t.Fatal("corrupt fate with zero mask would not change the wire")
		}
		if f.CorruptByte < 0 || f.CorruptByte >= 256 {
			t.Fatalf("corrupt byte %d outside a MAD", f.CorruptByte)
		}
	}
}

func TestKeysAreDistinct(t *testing.T) {
	seen := make(map[int32]string)
	note := func(k int32, name string) {
		if prev, ok := seen[k]; ok {
			t.Fatalf("key collision: %s and %s both map to %d", prev, name, k)
		}
		seen[k] = name
	}
	for h := 0; h < 64; h++ {
		note(HostKey(h), "host")
	}
	for s := 0; s < 64; s++ {
		for p := 0; p < 16; p++ {
			note(SwitchPortKey(s, p), "switch")
		}
	}
}

// TestTakeIntactDrawsWhatSMPFateWould: TakeIntact takes a run of fates
// only when all are intact, and then leaves the link's sequence, and
// the counters, exactly where that many SMPFate calls would; otherwise
// it takes nothing.
func TestTakeIntactDrawsWhatSMPFateWould(t *testing.T) {
	cfg := Config{Seed: 5, Drop: 0.1, Duplicate: 0.05, Corrupt: 0.05, Reorder: 0.05, MaxReorderBT: 64}
	taking, drawing := New(cfg), New(cfg)
	took := 0
	for i := 0; i < 2000; i++ {
		n := 1 + i%8
		if taking.TakeIntact(3, n) {
			took++
			for range n {
				if f := drawing.SMPFate(3); f != (Fate{CorruptByte: -1}) {
					t.Fatalf("run %d: TakeIntact took a run holding %+v", i, f)
				}
			}
		}
		// Both injectors then deal the next fate one by one.
		if a, b := taking.SMPFate(3), drawing.SMPFate(3); a != b {
			t.Fatalf("run %d: sequences diverged: %+v vs %+v", i, a, b)
		}
	}
	if taking.Stats() != drawing.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", taking.Stats(), drawing.Stats())
	}
	if took == 0 || took == 2000 {
		t.Errorf("TakeIntact took %d of 2000 runs: want some of each", took)
	}
	var nilInjector *Injector
	if !nilInjector.TakeIntact(3, 8) {
		t.Error("the nil injector dealt a fault")
	}
}
