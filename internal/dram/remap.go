package dram

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// RemapTable records the row-sparing decisions made at device test time:
// logical rows whose cells failed are replaced by spare physical rows. Only
// the DRAM device holds this information (it is burned into fuses), which is
// the paper's argument for resolving physical adjacency inside the device via
// the ARR command rather than in the memory controller.
//
// Physical row space is [0, RowsPerBank + SpareRowsPerBank): the first
// RowsPerBank physical rows are the default homes of the logical rows, the
// tail is the spare region.
//
// Resolution sits on the simulator's per-ACT hot path (every Activate calls
// Physical), so the sparse remapped set is held in flat sorted slices probed
// by binary search instead of maps: the common case — no rows remapped, or a
// row outside the remapped set — costs one branch or one ~7-step probe over
// a ~100-entry slice, with zero allocation and no map hashing.
type RemapTable struct {
	rows   int
	spares int
	// remappedLogical is the ascending list of remapped logical rows;
	// remappedPhys[i] is the spare physical row serving remappedLogical[i].
	remappedLogical []int
	remappedPhys    []int
	// spareLogical[s] is the logical row living in spare s (physical row
	// rows+s), dense because spares are assigned in order.
	spareLogical []int
}

// NewRemapTable returns an identity mapping with the given geometry.
func NewRemapTable(rows, spares int) *RemapTable {
	return &RemapTable{rows: rows, spares: spares}
}

// GenerateRemapTable builds a remap table by sampling faulty rows at the
// given single-cell-failure rate. A row is considered faulty (and remapped)
// if any of its cells failed; with cellsPerRow cells the per-row fault
// probability is 1-(1-scf)^cells, approximated as min(1, scf*cells) for the
// tiny rates involved. The rng makes the layout reproducible.
func GenerateRemapTable(p Params, rng *rand.Rand) *RemapTable {
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
	// generated layouts are unchanged; TestGenerateRemapTableMatchesReference
	// pins them. Accepted rows are marked in a bitmap (16 KiB a bank at the
	// default geometry).
	taken := make([]uint64, (p.RowsPerBank+63)/64)
	t.spareLogical = make([]int, 0, n)
	for len(t.spareLogical) < n {
		r := rng.Intn(p.RowsPerBank)
		if bit := uint64(1) << (r & 63); taken[r>>6]&bit == 0 {
			taken[r>>6] |= bit
			t.spareLogical = append(t.spareLogical, r)
		}
	}
	// The probe slices list the accepted rows in ascending order, so a
	// row's position there is its rank in the bitmap: the rows accepted in
	// the words below its own plus those below it in its word.
	below := make([]int, len(taken))
	for w := 1; w < len(taken); w++ {
		below[w] = below[w-1] + bits.OnesCount64(taken[w-1])
	}
	t.remappedLogical = make([]int, n)
	t.remappedPhys = make([]int, n)
	for s, r := range t.spareLogical {
		i := below[r>>6] + bits.OnesCount64(taken[r>>6]&(uint64(1)<<(r&63)-1))
		t.remappedLogical[i] = r
		t.remappedPhys[i] = t.rows + s
	}
	return t
}

// used returns the number of spares consumed.
func (t *RemapTable) used() int { return len(t.spareLogical) }

// findRemapped binary-searches the sorted remapped-logical slice and returns
// the position of logical, or -1 when the row is not remapped. Written as a
// plain loop (no sort.Search closure) because it runs on the per-ACT path.
func (t *RemapTable) findRemapped(logical int) int {
	lo, hi := 0, len(t.remappedLogical)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.remappedLogical[mid] < logical {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.remappedLogical) && t.remappedLogical[lo] == logical {
		return lo
	}
	return -1
}

// Remap assigns the next free spare row to the given logical row. It returns
// an error if the row is already remapped or the spare region is exhausted.
func (t *RemapTable) Remap(logical int) error {
	if logical < 0 || logical >= t.rows {
		return fmt.Errorf("dram: remap of out-of-range logical row %d", logical)
	}
	if t.findRemapped(logical) >= 0 {
		return fmt.Errorf("dram: logical row %d already remapped", logical)
	}
	if t.used() >= t.spares {
		return fmt.Errorf("dram: spare rows exhausted (%d used)", t.used())
	}
	phys := t.rows + t.used()
	t.spareLogical = append(t.spareLogical, logical)
	// Insert into the sorted probe slices (setup path; O(n) insertion is
	// irrelevant next to the per-ACT lookups it buys).
	pos := 0
	for pos < len(t.remappedLogical) && t.remappedLogical[pos] < logical {
		pos++
	}
	t.remappedLogical = append(t.remappedLogical, 0)
	t.remappedPhys = append(t.remappedPhys, 0)
	copy(t.remappedLogical[pos+1:], t.remappedLogical[pos:])
	copy(t.remappedPhys[pos+1:], t.remappedPhys[pos:])
	t.remappedLogical[pos] = logical
	t.remappedPhys[pos] = phys
	return nil
}

// Physical resolves a logical row index to its physical row index. The
// identity short-circuit makes this a single branch for unremapped banks.
//
//twicelint:hotpath logical→physical translation on every ACT
func (t *RemapTable) Physical(logical int) int {
	if len(t.remappedLogical) == 0 {
		return logical
	}
	if i := t.findRemapped(logical); i >= 0 {
		return t.remappedPhys[i]
	}
	return logical
}

// Logical resolves a physical row index back to the logical row stored there,
// or -1 if the physical row holds no logical row (an unused spare or a
// vacated faulty row).
//
//twicelint:hotpath physical→logical translation on every disturbance probe
func (t *RemapTable) Logical(phys int) int {
	if phys >= t.rows {
		if s := phys - t.rows; s < t.used() {
			return t.spareLogical[s]
		}
		return -1
	}
	if phys < 0 {
		return -1
	}
	if len(t.remappedLogical) != 0 && t.findRemapped(phys) >= 0 {
		return -1 // vacated default home: no logical row lives here
	}
	return phys
}

// PhysicalRows returns the size of the physical row space.
func (t *RemapTable) PhysicalRows() int { return t.rows + t.spares }
