// Package fixture exercises the maprange rule. The test analyzes it as if
// it lived at repro/cmd/fixture, outside internal/: the rule covers every
// package. Lines carrying a `// want <rule> "<substring>"` comment must
// produce exactly that diagnostic; every other line must be clean.
package fixture

import "sort"

func collectBad(m map[int]int64) []int {
	out := make([]int, 0, len(m))
	for k := range m { // want maprange "nondeterministic iteration over map m"
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sumFloatsBad(m map[string]float64) float64 {
	var total float64
	for _, v := range m { // want maprange "nondeterministic iteration over map m"
		total += v
	}
	return total
}

func printBad(m map[string]int, emit func(string)) {
	for k := range m { // want maprange "nondeterministic iteration over map m"
		emit(k)
	}
}

func countGood(m map[string]int) int64 {
	var n int64
	for range m {
		n++
	}
	return n
}

func sumIntsGood(m map[string]int64) int64 {
	var total int64
	for _, v := range m {
		total += v
	}
	return total
}

func copyGood(m map[int]int64) map[int]int64 {
	out := make(map[int]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func resetGood(m map[int][]int, pos int) {
	for _, w := range m {
		w[pos] = 0
	}
}

func clearGood(m map[int]int) {
	for k := range m {
		delete(m, k)
	}
}

func directiveGood(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	//twicelint:ordered keys are sorted before use below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func sliceGood(xs []int) int {
	var best int
	for _, x := range xs { // slices iterate in index order: never flagged
		if x > best {
			best = x
		}
	}
	return best
}
