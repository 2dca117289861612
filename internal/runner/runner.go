// Package runner fans independent simulation configurations out
// across a bounded pool of worker goroutines.  Each simulation engine
// is strictly single-goroutine (see package sim); the parallelism of
// the harness comes from running many independent engines at once, one
// per configuration.  The runner guarantees:
//
//   - values return in input order, regardless of completion order,
//     so a parallel sweep is a drop-in replacement for a sequential
//     loop and produces bit-identical aggregates;
//   - deterministic seeding: DeriveSeed gives every configuration a
//     stable pseudo-independent seed from a base seed and its index,
//     independent of worker count and scheduling;
//   - one error rule: a job that fails or panics fails the sweep, and
//     the sweep's error is the first failure in input order, naming
//     the job (a panic's error carries the stack), so it is the same
//     at any worker count;
//   - bounded concurrency: at most workers jobs run at once.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Job is one configuration of a sweep.  Run receives the job's seed so
// closures need not capture it.
type Job[T any] struct {
	Name string
	Seed int64
	Run  func(seed int64) (T, error)
}

// DeriveSeed maps (base, index) to a stable, well-mixed seed via a
// splitmix64 step, so the configurations of one sweep get
// pseudo-independent randomness that never depends on worker count.
func DeriveSeed(base int64, index int) int64 {
	z := uint64(base) + (uint64(index)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Sweep runs every job on at most workers goroutines (GOMAXPROCS when
// workers <= 0) and returns their values in input order.  A failed or
// panicking job fails the sweep: no job is started after the first
// failure, and the error returned is that of the first failed job in
// input order.  Jobs are handed out in input order, so every job
// before that one has run, whatever the worker count.
func Sweep[T any](jobs []Job[T], workers int) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(jobs))
	values := make([]T, len(jobs))
	errs := make([]error, len(jobs))
	var failed atomic.Bool
	indices := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range indices {
				values[i], errs[i] = execute(jobs[i])
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := range jobs {
		if failed.Load() {
			break
		}
		indices <- i
	}
	close(indices)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return values, nil
}

// execute runs one job, turning a panic into an error that names the
// job and carries the stack.
func execute[T any](job Job[T]) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: panic: %v\n%s", job.Name, r, debug.Stack())
		}
	}()
	if v, err = job.Run(job.Seed); err != nil {
		err = fmt.Errorf("%s: %w", job.Name, err)
	}
	return v, err
}
