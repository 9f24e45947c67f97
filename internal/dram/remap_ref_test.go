package dram

import (
	"math/rand"
	"sort"
)

// generateRemapTableRef is the GenerateRemapTable that the bitmap and the
// packed sort replaced, kept verbatim apart from its name: a []bool per bank
// marks accepted rows, and sort.Slice orders a permutation of the spares by
// row. TestGenerateRemapTableMatchesReference pins GenerateRemapTable to it.
func generateRemapTableRef(p Params, rng *rand.Rand) *RemapTable {
	t := NewRemapTable(p.RowsPerBank, p.SpareRowsPerBank)
	cells := float64(p.RowBytes() * 8)
	perRow := p.SCFRate * cells
	if perRow > 1 {
		perRow = 1
	}
	if perRow <= 0 {
		return t
	}
	// Sample the number of faulty rows and place them uniformly; this avoids
	// a 131K-iteration Bernoulli loop per bank while preserving the marginal
	// distribution closely enough for layout purposes.
	expected := perRow * float64(p.RowsPerBank)
	n := int(expected)
	if rng.Float64() < expected-float64(n) {
		n++
	}
	if n > p.SpareRowsPerBank {
		n = p.SpareRowsPerBank
	}
	if n == 0 {
		return t
	}
	// Collect the n distinct faulty rows in acceptance order (spare s serves
	// the s-th accepted row), then build the sorted probe slices in one pass.
	// Incremental Remap calls would sorted-insert per acceptance — O(n²)
	// element moves per bank, which dominated machine construction at the
	// default fault rate (n = 1024 spares per bank). The rejection loop below
	// draws from the rng in exactly the order the incremental version did, so
	// generated layouts are unchanged.
	taken := make([]bool, p.RowsPerBank)
	t.spareLogical = make([]int, 0, n)
	for len(t.spareLogical) < n {
		r := rng.Intn(p.RowsPerBank)
		if !taken[r] {
			taken[r] = true
			t.spareLogical = append(t.spareLogical, r)
		}
	}
	perm := make([]int, n) // acceptance indices, sorted by logical row
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(i, j int) bool { return t.spareLogical[perm[i]] < t.spareLogical[perm[j]] })
	t.remappedLogical = make([]int, n)
	t.remappedPhys = make([]int, n)
	for i, s := range perm {
		t.remappedLogical[i] = t.spareLogical[s]
		t.remappedPhys[i] = t.rows + s
	}
	return t
}
