// Package parallel provides the bounded-worker execution engine behind the
// experiment layer: independent (workload, defense) simulation cells fan out
// across cores while the results — and any error — stay bit-for-bit
// identical to serial execution.
//
// Determinism falls out of two properties:
//
//   - Results are assembled by index. Each job writes only its own slot of
//     the result slice, so output ordering never depends on scheduling.
//   - Errors are selected by index. Jobs are dispatched in increasing index
//     order from a single atomic counter, so by the time job k starts, every
//     job i < k has already started and will run to completion. The reported
//     error is therefore always the one the lowest-indexed failing job
//     produced — exactly the error a serial loop would have returned.
//
// Cancellation is first-error-wins: once any job fails, no new jobs are
// dispatched; in-flight jobs finish normally (simulation cells have no
// external effects to interrupt) and the pool drains cleanly.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner executes indexed jobs on a bounded worker pool.
type Runner struct {
	// Workers is the pool size. 0 (the zero value) means
	// runtime.GOMAXPROCS(0); 1 forces serial execution on the calling
	// goroutine, which spawns nothing and is the byte-identical baseline
	// the equivalence tests compare against.
	Workers int

	// OnDone, when set, is called after each job returns nil, with the
	// number of jobs completed so far and the total — the hook progress
	// meters plug into. Serial execution calls it in index order from the
	// calling goroutine; parallel execution calls it from whichever worker
	// finished (the callback must be safe for concurrent use), and while
	// each call's done count is unique, calls may be observed out of order.
	// The hook observes execution only — it must not affect results, which
	// stay byte-identical with or without it.
	OnDone func(done, total int)
}

// workers resolves the effective pool size for n jobs.
func (r Runner) workers(n int) int {
	w := r.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// PoolSize reports the number of worker slots Map uses for n jobs — the
// upper bound (exclusive) on the worker index passed to its fn. Callers
// sizing per-worker scratch state (one recycled machine per slot, say)
// allocate exactly this many entries. Serial execution is one slot; n <= 0
// needs none.
func (r Runner) PoolSize(n int) int {
	if n <= 0 {
		return 0
	}
	return r.workers(n)
}

// Map runs fn(worker, i) for i = 0 … n-1 on r's pool and returns the results
// in index order. worker is the executing pool slot, 0 <= worker <
// PoolSize(n); a slot runs at most one job at a time, so per-worker state
// indexed by the slot needs no locking, and serial execution (pool size 1)
// reports worker 0 for every job. On error the results are discarded and the
// lowest-indexed failure is returned; after a failure no new jobs start, and
// jobs already running complete before Map returns, so the caller may reuse
// or discard shared inputs immediately. Map is a free function rather than a
// Runner method because Go methods cannot take type parameters.
func Map[T any](r Runner, n int, fn func(worker, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := r.run(n, func(worker, i int) error {
		v, err := fn(worker, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// run executes job(worker, i) for every index on the pool and returns the
// error of the lowest-indexed failing job, or nil.
func (r Runner) run(n int, job func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := r.workers(n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(0, i); err != nil {
				return err
			}
			if r.OnDone != nil {
				r.OnDone(i+1, n)
			}
		}
		return nil
	}

	var (
		next     atomic.Int64 // next job index to dispatch, minus one
		done     atomic.Int64 // jobs completed successfully (for OnDone)
		stop     atomic.Bool  // set on first failure: stop dispatching
		mu       sync.Mutex   // guards firstIdx/firstErr
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || stop.Load() {
					return
				}
				if err := job(worker, i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					stop.Store(true)
					continue
				}
				if r.OnDone != nil {
					r.OnDone(int(done.Add(1)), n)
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}
