package core

import "testing"

// The join path — a connection sharing an existing sequence of its VL
// — is the hot path of admission under churn: it runs once per hop of
// every arriving connection.  It must not allocate; the per-VL live
// index exists so Reserve never builds the sorted all-VL snapshot
// that Sequences() returns.

func TestReserveJoinDoesNotAllocate(t *testing.T) {
	p := newPort()
	// Anchor sequences on several VLs so the index is non-trivial.
	for vl := uint8(0); vl < 4; vl++ {
		if _, err := p.Reserve(vl, 8, 100); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		r, err := p.Reserve(2, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Release(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("join path allocates %.1f objects per op, want 0", allocs)
	}
}

func BenchmarkReserveJoin(b *testing.B) {
	p := newPort()
	if _, err := p.Reserve(0, 8, 100); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := p.Reserve(0, 8, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Release(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReleaseDefragment times the release that costs the most: it
// empties a sequence, and the defragmenter that follows has to move a
// later arrival into the hole.  One iteration is two fresh allocations
// (the only heap objects: their Sequence records) and two releases, one
// of which relocates a sequence.
func BenchmarkReleaseDefragment(b *testing.B) {
	p := newPort()
	for vl, d := range []int{4, 8, 16, 32} {
		if _, err := p.Reserve(uint8(vl), d, 100); err != nil {
			b.Fatal(err)
		}
	}
	round := func() {
		first, err := p.Reserve(10, 64, 200)
		if err != nil {
			b.Fatal(err)
		}
		second, err := p.Reserve(11, 64, 200)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Release(first); err != nil { // second moves into first's slot
			b.Fatal(err)
		}
		if err := p.Release(second); err != nil {
			b.Fatal(err)
		}
	}
	round()
	if p.Allocator().TotalMoves() != 1 {
		b.Fatalf("a round relocated %d sequences, want 1", p.Allocator().TotalMoves())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
