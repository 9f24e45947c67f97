// Package hotfix exercises the hotpath rule: every allocation source in the
// static call closure of a //twicelint:hotpath root is a finding unless the
// line carries //twicelint:allocok <why>.
package hotfix

import "fmt"

type point struct{ x int }

//twicelint:hotpath fixture stand-in for the per-ACT kernel
func Kernel(dst, spill []int, label, suffix string, n int) (int, string) {
	buf := make([]int, 8)    // want hotpath "make allocates"
	p := new(point)          // want hotpath "new allocates"
	dst = append(dst, n)     // want hotpath "append without capacity evidence"
	dst = append(dst[:0], n) // capacity evidence: reuses dst's backing array
	//twicelint:allocok fixture: growth is amortized across the run
	spill = append(spill, n)
	_ = []int{n}           // want hotpath "slice literal"
	_ = map[int]int{n: n}  // want hotpath "map literal"
	q := &point{x: n}      // want hotpath "&composite literal allocates"
	_ = func() {}          // want hotpath "function literal allocates a closure"
	label = label + suffix // want hotpath "string concatenation allocates"
	label += suffix        // want hotpath "string concatenation allocates"
	defer cleanup()        // want hotpath "defer allocates a deferred frame"
	sink(n)                // want hotpath "to an interface parameter boxes it"
	msg := fmt.Sprintf(    // want hotpath "call to fmt.Sprintf allocates"
		"row %d", // the format string fills the non-variadic string parameter: no boxing
		n,        // want hotpath "to an interface parameter boxes it"
	)
	h := helper(n)
	return buf[0] + p.x + q.x + h.x + len(dst) + len(spill) + len(msg), label
}

// Barrier mirrors a barrier-synchronised worker phase over sharded state:
// the worker-body closure is a per-barrier allocation that must be excused
// deliberately, and per-shard buffers must reuse their backing arrays via
// the [:0] idiom rather than grow fresh ones inside the loop.
//
//twicelint:hotpath fixture stand-in for a barrier-synchronised worker phase
func Barrier(shards [][]int, n int) int {
	spawn := func(i int) { // want hotpath "function literal allocates a closure"
		shards[i] = append(shards[i], n) // want hotpath "append without capacity evidence"
	}
	spawn(0)
	//twicelint:allocok fixture: one worker body per barrier, amortized over its shards
	pooled := func(i int) {
		shards[i] = append(shards[i][:0], n) // capacity evidence: per-shard buffer reuse
	}
	pooled(1)
	return len(shards[0])
}

// helper is not annotated itself: it is reached from Kernel through the
// static call graph, and its finding names the root.
func helper(n int) *point {
	return &point{x: n} // want hotpath "rooted at //twicelint:hotpath repro/internal/sim/hotfix.Kernel"
}

func cleanup() {}

func sink(v interface{}) { _ = v }
