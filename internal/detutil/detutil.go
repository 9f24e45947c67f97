// Package detutil provides deterministic-iteration helpers. Go randomizes
// map iteration order on purpose; simulation code must never let that
// randomness reach scheduling decisions or output, because the paper's
// thRH/table-bound claims are only checkable on bit-for-bit reproducible
// runs. Every `for … range m` over a map, in any package, either proves
// itself order-insensitive to twicelint or iterates SortedKeys(m).
//
// This is the one package twicelint skips: the raw iteration lives here,
// once, behind a sorting barrier.
package detutil

import (
	"cmp"
	"slices"
)

// SortedKeys returns the keys of m in ascending order. It is the blessed
// way to iterate a map deterministically:
//
//	for _, k := range detutil.SortedKeys(m) {
//		v := m[k]
//		...
//	}
func SortedKeys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
