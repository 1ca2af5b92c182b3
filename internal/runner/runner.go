// Package runner fans independent experiment workloads out across a bounded
// worker pool while keeping results byte-identical to a serial run.
//
// The concurrency model is engine-per-goroutine confinement: every job owns
// its private sim.Engine (and everything hanging off it — network, pools,
// measurer), seeds it deterministically from its input index, and shares
// nothing with its siblings. Under that discipline parallelism cannot change
// results, only wall-clock: each job's event sequence is a pure function of
// its seed, and the pool collects results in input order regardless of
// completion order. See DESIGN.md §9 ("Concurrency").
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultParallelism is the pool width used when a call does not specify one.
// Zero (the initial state) means GOMAXPROCS, resolved at call time.
var defaultParallelism atomic.Int64

// SetParallelism sets the process-wide default pool width. n ≤ 0 restores
// the GOMAXPROCS default. Commands expose this as their -parallel flag;
// 1 fully serializes every fan-out in the process.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	defaultParallelism.Store(int64(n))
}

// Parallelism returns the effective default pool width.
func Parallelism() int {
	if n := int(defaultParallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(0..n-1) across at most Parallelism() workers and returns the
// results in input order. fn must confine all mutable state to its own call
// (engine-per-goroutine); it may not touch its siblings' state.
func Map[T any](n int, fn func(i int) T) []T {
	return MapN(0, n, fn)
}

// MapN is Map with an explicit pool width; parallel ≤ 0 means Parallelism().
// With parallel == 1 the jobs run serially on the calling goroutine, which is
// the reference behaviour the parallel path must reproduce byte-identically.
func MapN[T any](parallel, n int, fn func(i int) T) []T {
	return MapWorker(parallel, n, func(_, i int) T { return fn(i) })
}

// MapWorker is MapN exposing each job's worker slot (0..parallel-1) — purely
// observational (trace lane attribution, per-worker scratch); results must
// not depend on it, since the worker→job assignment varies with scheduling.
// The serial path runs everything as worker 0.
func MapWorker[T any](parallel, n int, fn func(worker, i int) T) []T {
	if n <= 0 {
		return nil
	}
	if parallel <= 0 {
		parallel = Parallelism()
	}
	if parallel > n {
		parallel = n
	}
	out := make([]T, n)
	if parallel == 1 {
		for i := range out {
			out[i] = fn(0, i)
		}
		return out
	}
	// Workers pull indices from an atomic counter — no channel, no lock —
	// and write each result to its own slot, so collection order is input
	// order by construction.
	var next atomic.Int64
	var wg sync.WaitGroup
	panics := make([]any, parallel)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[w] = r
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	// A panicking job would have crashed a serial run; re-panic on the
	// caller's goroutine (first worker slot wins, deterministically enough
	// for a crash path).
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return out
}

// MapErr is MapN for jobs that can fail. All jobs run to completion (a
// failure does not cancel siblings, matching a serial loop that collects
// every row); the returned error is the lowest-index one, so the reported
// failure is the same no matter how the schedule interleaved.
func MapErr[T any](parallel, n int, fn func(i int) (T, error)) ([]T, error) {
	errs := make([]error, n)
	out := MapN(parallel, n, func(i int) T {
		v, err := fn(i)
		errs[i] = err
		return v
	})
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
