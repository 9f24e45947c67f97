package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/dram"
	"repro/internal/mc"
)

// The synthetic workloads of §7.2. They bypass the caches (an attacker uses
// clflush or conflict evictions) and are phrased directly in DRAM
// coordinates through the controller's address map.

// s1Gen injects uniformly random accesses across the whole memory.
type s1Gen struct {
	m   *mc.AddrMap
	p   dram.Params
	rng *rand.Rand
}

// S1 is the constant random-access pattern.
func S1(m *mc.AddrMap, p dram.Params, seed int64) Workload {
	return Workload{
		Name:        "S1",
		Gens:        []Generator{&s1Gen{m: m, p: p, rng: rand.New(rand.NewSource(seed))}},
		BypassCache: true,
	}
}

func (g *s1Gen) Name() string { return "S1-random" }

func (g *s1Gen) Next() Access {
	a := dram.Addr{
		Channel: g.rng.Intn(g.p.Channels),
		Rank:    g.rng.Intn(g.p.RanksPerChannel),
		Bank:    g.rng.Intn(g.p.BanksPerRank),
		Row:     g.rng.Intn(g.p.RowsPerBank),
		Col:     g.rng.Intn(g.p.ColumnsPerRow),
	}
	return Access{Addr: g.m.Compose(a), Gap: 1}
}

// s2Gen is the CBT-adversarial pattern (§7.2): exhaust the tree's counter
// pool on the lower half of one bank, then hammer the upper half, which is
// left covered only by coarse counters whose top-threshold refresh must
// sweep thousands of rows at once. Because CBT resets its tree every
// refresh window, the attacker repeats the two phases cyclically.
//
// The pattern follows the paper's description literally: phase A sweeps the
// first half round-robin until the tree's counters have all split there
// (CBT's geometric sub-thresholds make a plain sweep exhaust the pool
// within one window), then phase B sweeps the second half, which is left
// under coarse counters whose top-threshold refresh must cover thousands of
// rows at once.
type s2Gen struct {
	m      *mc.AddrMap
	p      dram.Params
	count  uint64
	phaseA uint64 // accesses per exhaustion phase
	cycle  uint64 // accesses per full A+B cycle
	rowA   int
	rowB   int
}

// S2 builds the CBT-adversarial pattern against a tree with the given top
// threshold. The cycle length equals one refresh window's activation budget
// (maxact × tREFW/tREFI — JEDEC constants an attacker knows), so the
// exhaustion phase re-runs after every CBT tree reset; three quarters of the
// window are spent exhausting, the rest attacking.
func S2(m *mc.AddrMap, p dram.Params, cbtThreshold int) Workload {
	cycle := uint64(p.MaxACTsPerRefreshInterval()) * uint64(p.RefreshTicksPerWindow())
	minCycle := 8 * uint64(cbtThreshold)
	if cycle < minCycle {
		cycle = minCycle // degenerate windows: keep both phases meaningful
	}
	return Workload{
		Name: "S2",
		Gens: []Generator{&s2Gen{
			m: m, p: p,
			phaseA: cycle * 3 / 4,
			cycle:  cycle,
		}},
		BypassCache: true,
	}
}

func (g *s2Gen) Name() string { return "S2-cbt-adversarial" }

func (g *s2Gen) Next() Access {
	half := g.p.RowsPerBank / 2
	pos := g.count % g.cycle
	var row int
	if pos < g.phaseA {
		// Phase A: sweep the first half to split every counter there.
		row = g.rowA % half
		g.rowA++
	} else {
		// Phase B: sweep the now-undertracked second half.
		row = half + g.rowB%half
		g.rowB++
	}
	g.count++
	a := dram.Addr{Row: row}
	return Access{Addr: g.m.Compose(a), Gap: 1}
}

// s3Gen is the classic row-hammer attack: one aggressor row in one bank,
// activated as fast as the DRAM protocol allows. Cycling through the row's
// columns defeats any residual caching.
type s3Gen struct {
	m   *mc.AddrMap
	p   dram.Params
	row int
	col int
}

// CheckRow returns an error unless an attack on row hammers only rows of
// the bank: its aggressors reach below rows under row and above rows over
// it, and each must lie in [0, rows). The address map masks row bits, so an
// aggressor outside the bank would silently hammer a different row.
func CheckRow(row, below, above, rows int) error {
	if lo, hi := below, rows-above; row < lo || row >= hi {
		return fmt.Errorf("row %d outside [%d, %d)", row, lo, hi)
	}
	return nil
}

// S3 is the single-row row-hammer attack against the given row of bank 0.
func S3(m *mc.AddrMap, p dram.Params, row int) Workload {
	return Workload{
		Name:        "S3",
		Gens:        []Generator{&s3Gen{m: m, p: p, row: row}},
		BypassCache: true,
	}
}

func (g *s3Gen) Name() string { return "S3-rowhammer" }

func (g *s3Gen) Next() Access {
	g.col = (g.col + 1) % g.p.ColumnsPerRow
	a := dram.Addr{Row: g.row, Col: g.col}
	return Access{Addr: g.m.Compose(a), Gap: 1}
}

// manySidedGen hammers N aggressor rows in rotation (the TRRespass pattern):
// with more aggressors than an in-DRAM TRR sampler has tracker entries, the
// attacker's own activations continually evict its aggressors from the
// tracker before any of them reaches the MAC, bypassing the mitigation while
// every victim still accumulates disturbance from both sides. An extension
// beyond the paper's synthetics, used to contrast TRR with TWiCe.
type manySidedGen struct {
	m          *mc.AddrMap
	name       string
	aggressors []int
	i          int
}

// ManySided builds an n-sided hammer: n aggressor rows spaced two apart
// starting at base, so the rows between them are double-sided victims.
func ManySided(m *mc.AddrMap, base, n int) Workload {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = base + 2*i
	}
	return Workload{
		Name:        fmt.Sprintf("many-sided-%d", n),
		Gens:        []Generator{&manySidedGen{m: m, name: "many-sided-rowhammer", aggressors: rows}},
		BypassCache: true,
	}
}

// DoubleSided builds a double-sided row-hammer attack around victim row:
// the two-aggressor many-sided hammer, alternating between the rows that
// sandwich the victim so every access forces a fresh activation (a row
// conflict with the sibling aggressor). This is the strongest practical
// attack shape and an extension beyond the paper's S3.
func DoubleSided(m *mc.AddrMap, victim int) Workload {
	g := &manySidedGen{m: m, name: "double-sided-rowhammer", aggressors: []int{victim - 1, victim + 1}}
	return Workload{Name: "double-sided", Gens: []Generator{g}, BypassCache: true}
}

func (g *manySidedGen) Name() string { return g.name }

func (g *manySidedGen) Next() Access {
	row := g.aggressors[g.i]
	g.i = (g.i + 1) % len(g.aggressors)
	return Access{Addr: g.m.Compose(dram.Addr{Row: row}), Gap: 1}
}
