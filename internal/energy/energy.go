// Package energy reproduces the paper's Table 3 cost model: per-operation
// timing and energy of fa-TWiCe and pa-TWiCe (from the authors' 45 nm SPICE
// characterisation) against DRAM activation/precharge and refresh energy
// (from the Micron DDR4 power calculator), plus the §6.2/§7.1 area model.
// Aggregating the constants over a simulated command mix yields the paper's
// headline overheads: < 0.7% count energy and < 0.5% update energy.
package energy

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/stats"
)

// OpCost is the timing and energy of one operation.
type OpCost struct {
	Time  clock.Time
	NanoJ float64
}

// Model holds the Table 3 constants.
type Model struct {
	// fa-TWiCe.
	FACount  OpCost // one ACT count operation
	FAUpdate OpCost // one prune-time table update

	// pa-TWiCe.
	PACountPreferred OpCost // count hitting the preferred set only
	PACountAllSets   OpCost // worst case: all sets searched
	PAUpdate         OpCost

	// DRAM reference operations.
	DRAMActPre  OpCost // one ACT+PRE pair (tRC)
	DRAMRefresh OpCost // one per-bank refresh (tRFC)
}

// Table3 returns the paper's measured constants.
func Table3() Model {
	return Model{
		FACount:          OpCost{3 * clock.Nanosecond, 0.082},
		FAUpdate:         OpCost{140 * clock.Nanosecond, 0.663},
		PACountPreferred: OpCost{6 * clock.Nanosecond, 0.037},
		PACountAllSets:   OpCost{24 * clock.Nanosecond, 0.313},
		PAUpdate:         OpCost{130 * clock.Nanosecond, 0.474},
		DRAMActPre:       OpCost{45 * clock.Nanosecond, 11.49},
		DRAMRefresh:      OpCost{350 * clock.Nanosecond, 132.25},
	}
}

// Breakdown is the aggregated energy of one simulation run.
type Breakdown struct {
	DRAMActPreNJ  float64 // demand + defense activations
	DRAMRefreshNJ float64 // per-bank auto-refresh energy
	CountNJ       float64 // TWiCe ACT-count operations
	UpdateNJ      float64 // TWiCe prune-time table updates
}

// CountOverhead returns count energy relative to DRAM ACT/PRE energy
// (the paper's "< 0.7%" figure).
func (b Breakdown) CountOverhead() float64 {
	if b.DRAMActPreNJ == 0 {
		return 0
	}
	return b.CountNJ / b.DRAMActPreNJ
}

// UpdateOverhead returns table-update energy relative to refresh energy
// (the paper's "< 0.5%" figure).
func (b Breakdown) UpdateOverhead() float64 {
	if b.DRAMRefreshNJ == 0 {
		return 0
	}
	return b.UpdateNJ / b.DRAMRefreshNJ
}

// String renders the breakdown.
func (b Breakdown) String() string {
	return fmt.Sprintf("ACT/PRE=%.1fnJ refresh=%.1fnJ count=%.1fnJ (%.3f%%) update=%.1fnJ (%.3f%%)",
		b.DRAMActPreNJ, b.DRAMRefreshNJ,
		b.CountNJ, 100*b.CountOverhead(),
		b.UpdateNJ, 100*b.UpdateOverhead())
}

// Aggregate combines simulated counters and TWiCe table-operation counts
// into an energy breakdown. banksPerRank scales refresh energy: one REF
// command refreshes every bank in the rank. org selects the cost constants.
func (m Model) Aggregate(cnt stats.Counters, ops core.OpStats, org core.Org, banksPerRank int) Breakdown {
	var b Breakdown
	acts := cnt.NormalACTs + cnt.DefenseACTs
	b.DRAMActPreNJ = float64(acts) * m.DRAMActPre.NanoJ
	b.DRAMRefreshNJ = float64(cnt.Refreshes*int64(banksPerRank)) * m.DRAMRefresh.NanoJ

	switch org {
	case core.PA:
		// Searches that stayed in the preferred set pay the cheap path;
		// the rest pay per extra set probed, bounded by the all-set cost.
		preferred := ops.PreferredHits
		other := ops.Searches - preferred
		b.CountNJ = float64(preferred)*m.PACountPreferred.NanoJ + float64(other)*m.PACountAllSets.NanoJ
		b.UpdateNJ = float64(ops.Prunes) * m.PAUpdate.NanoJ
	default:
		b.CountNJ = float64(ops.Searches) * m.FACount.NanoJ
		b.UpdateNJ = float64(ops.Prunes) * m.FAUpdate.NanoJ
	}
	return b
}

// Area reports the §6.2/§7.1 storage model for a TWiCe configuration.
type Area struct {
	Entries          int // total counter entries per bank
	WideEntries      int // 15-bit act_cnt entries
	NarrowEntries    int // 2-bit act_cnt entries
	BitsPerWide      int
	BitsPerNarrow    int
	TableBytes       int     // per bank
	SBIndicatorBytes int     // pa-TWiCe set-borrowing indicators
	BytesPerGB       float64 // table bytes per GB of protected DRAM
}

// AreaModel computes the storage footprint of a TWiCe configuration. Entry
// layout follows §7.1: valid(1) + row_addr(⌈log2 rows⌉) + act_cnt + life
// bits, with act_cnt of 15 bits for wide and 2 bits for narrow entries and
// life sized for maxlife.
func AreaModel(cfg core.Config) Area {
	rows := cfg.DRAM.RowsPerBank
	rowBits := bitsFor(rows - 1)
	lifeBits := bitsFor(cfg.MaxLife() - 1) // life ∈ [1, maxlife] stored as life−1
	narrow, wide := cfg.SeparatedSizing()

	var a Area
	a.WideEntries, a.NarrowEntries = wide, narrow
	a.Entries = wide + narrow
	a.BitsPerWide = 1 + rowBits + 15 + lifeBits
	a.BitsPerNarrow = 1 + rowBits + 2 + lifeBits
	bits := wide*a.BitsPerWide + narrow*a.BitsPerNarrow
	a.TableBytes = (bits + 7) / 8
	if cfg.Org == core.PA {
		// 9 sets × 8 indicators × 6 bits ≈ the paper's 54-byte addition.
		sets := (a.Entries + cfg.Ways - 1) / cfg.Ways
		a.SBIndicatorBytes = sets * (sets - 1) * 6 / 8
	}
	gb := float64(cfg.DRAM.BankCapacityBytes()) / float64(1<<30)
	if gb > 0 {
		a.BytesPerGB = float64(a.TableBytes+a.SBIndicatorBytes) / gb
	}
	return a
}

func bitsFor(v int) int {
	n := 0
	for 1<<n <= v {
		n++
	}
	return n
}
