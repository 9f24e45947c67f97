package parallel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// square is a job that never fails.
func square(_, i int) (int, error) { return i * i, nil }

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got, err := Map(Runner{Workers: workers}, 20, square)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	got, err := Map(Runner{}, 0, func(_, _ int) (int, error) { t.Fatal("job ran"); return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty map = %v, %v", got, err)
	}
	ran := 0
	if _, err := Map(Runner{Workers: 8}, 1, func(_, _ int) (int, error) { ran++; return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("single job ran %d times", ran)
	}
}

// TestFirstErrorWinsIsDeterministic makes several jobs fail and requires the
// reported error to always be the lowest-indexed one — the error a serial
// loop would return — regardless of worker count or scheduling.
func TestFirstErrorWinsIsDeterministic(t *testing.T) {
	failAt := map[int]bool{3: true, 11: true, 17: true}
	for _, workers := range []int{1, 2, 4, 16} {
		for rep := 0; rep < 20; rep++ {
			got, err := Map(Runner{Workers: workers}, 24, func(_, i int) (int, error) {
				if failAt[i] {
					return 0, fmt.Errorf("cell %d failed", i)
				}
				return i, nil
			})
			if err == nil || err.Error() != "cell 3 failed" {
				t.Fatalf("workers=%d rep=%d: err = %v, want cell 3's", workers, rep, err)
			}
			if got != nil {
				t.Fatalf("workers=%d rep=%d: results kept after a failure", workers, rep)
			}
		}
	}
}

// TestCancellationStopsDispatch checks that after a failure the pool stops
// handing out new work: with a serial runner, jobs after the failing index
// must never run.
func TestCancellationStopsDispatch(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	failAt := func(k int) func(_, i int) (int, error) {
		return func(_, i int) (int, error) {
			ran.Add(1)
			if i == k {
				return 0, boom
			}
			return i, nil
		}
	}
	if _, err := Map(Runner{Workers: 1}, 100, failAt(5)); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := ran.Load(); got != 6 {
		t.Fatalf("serial runner ran %d jobs after failure at index 5, want 6", got)
	}

	// Concurrent pool: everything that runs finishes, and well under all
	// 10000 jobs are dispatched after an immediate failure.
	ran.Store(0)
	if _, err := Map(Runner{Workers: 4}, 10000, failAt(0)); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := ran.Load(); got == 10000 {
		t.Fatalf("cancellation did not stop dispatch (all %d jobs ran)", got)
	}
}

// TestMapConcurrentWritesAreDisjoint hammers a larger grid under the race
// detector (verify.sh runs this package with -race): every job writes its
// own slot only.
func TestMapConcurrentWritesAreDisjoint(t *testing.T) {
	const n = 5000
	got, err := Map(Runner{Workers: 8}, n, func(_, i int) (int64, error) { return int64(i) + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range got {
		sum += v
	}
	if want := int64(n) * (n + 1) / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

// TestOnDoneCountsCompletedJobs pins the progress-hook contract: one call
// per successful job, each with a distinct done count in [1, total] and the
// true total, in index order when serial, and none for a failed job.
func TestOnDoneCountsCompletedJobs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 200
		var mu sync.Mutex
		var seen []int
		r := Runner{Workers: workers, OnDone: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != n {
				t.Errorf("workers=%d: total = %d, want %d", workers, total, n)
			}
			seen = append(seen, done)
		}}
		if _, err := Map(r, n, square); err != nil {
			t.Fatal(err)
		}
		if len(seen) != n {
			t.Fatalf("workers=%d: OnDone called %d times, want %d", workers, len(seen), n)
		}
		hit := make([]bool, n+1)
		for k, done := range seen {
			if done < 1 || done > n || hit[done] {
				t.Fatalf("workers=%d: done count %d repeated or out of range", workers, done)
			}
			hit[done] = true
			if workers == 1 && done != k+1 {
				t.Fatalf("workers=1: call %d reported done %d, want index order", k, done)
			}
		}
	}

	calls := 0
	r := Runner{Workers: 1, OnDone: func(int, int) { calls++ }}
	if _, err := Map(r, 10, func(_, i int) (int, error) {
		if i == 3 {
			return 0, errors.New("boom")
		}
		return i, nil
	}); err == nil {
		t.Fatal("failure not reported")
	}
	if calls != 3 {
		t.Fatalf("OnDone called %d times before the failure at index 3, want 3", calls)
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := (Runner{Workers: 8}).workers(3); got != 3 {
		t.Errorf("workers capped at job count: got %d, want 3", got)
	}
	if got := (Runner{Workers: -1}).workers(100); got < 1 {
		t.Errorf("negative Workers resolved to %d", got)
	}
	if got := (Runner{Workers: 2}).workers(100); got != 2 {
		t.Errorf("explicit Workers ignored: got %d, want 2", got)
	}
}

func TestPoolSize(t *testing.T) {
	if got := (Runner{Workers: 4}).PoolSize(0); got != 0 {
		t.Errorf("PoolSize(0) = %d, want 0", got)
	}
	if got := (Runner{Workers: 4}).PoolSize(2); got != 2 {
		t.Errorf("PoolSize capped at job count: got %d, want 2", got)
	}
	if got := (Runner{Workers: 1}).PoolSize(100); got != 1 {
		t.Errorf("serial PoolSize = %d, want 1", got)
	}
	if got := (Runner{Workers: 4}).PoolSize(100); got != 4 {
		t.Errorf("PoolSize = %d, want 4", got)
	}
}

// TestMapSlotContract pins the two properties per-worker state relies on:
// every reported worker index is within [0, PoolSize(n)), and a slot never
// runs two jobs concurrently — a non-reentrant per-slot flag flipped around
// each job must never observe itself already set.
func TestMapSlotContract(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		r := Runner{Workers: workers}
		const n = 2000
		pool := r.PoolSize(n)
		busy := make([]atomic.Bool, pool)
		seen := make([]atomic.Bool, pool) // worker indices observed
		_, err := Map(r, n, func(worker, i int) (struct{}, error) {
			if worker < 0 || worker >= pool {
				return struct{}{}, fmt.Errorf("worker %d outside pool of %d", worker, pool)
			}
			if !busy[worker].CompareAndSwap(false, true) {
				return struct{}{}, fmt.Errorf("slot %d ran two jobs at once", worker)
			}
			seen[worker].Store(true)
			busy[worker].Store(false)
			return struct{}{}, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 && !seen[0].Load() {
			t.Fatal("serial run never reported slot 0")
		}
	}
}

// TestMapWorkersMatchesMap pins that the worker slot passed to fn never shows
// in the results: a job that builds its value in per-slot scratch state gets,
// for every pool size, the slice a serial loop would produce.
func TestMapWorkersMatchesMap(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		r := Runner{Workers: workers}
		const n = 50
		scratch := make([][]int, r.PoolSize(n))
		got, err := Map(r, n, func(worker, i int) (int, error) {
			scratch[worker] = append(scratch[worker][:0], i, i, i)
			sum := 0
			for _, v := range scratch[worker] {
				sum += v
			}
			return sum, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*3 {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*3)
			}
		}
	}
}
