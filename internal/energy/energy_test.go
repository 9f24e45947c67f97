package energy

import (
	"math"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/stats"
)

func TestTable3Constants(t *testing.T) {
	m := Table3()
	if m.FACount.Time != 3*clock.Nanosecond || m.FACount.NanoJ != 0.082 {
		t.Errorf("fa count = %+v", m.FACount)
	}
	if m.DRAMActPre.NanoJ != 11.49 || m.DRAMRefresh.NanoJ != 132.25 {
		t.Errorf("DRAM constants = %+v %+v", m.DRAMActPre, m.DRAMRefresh)
	}
	// Table update must fit inside the refresh shadow (§7.1): both fa
	// (140 ns) and pa (130 ns) are below tRFC (350 ns).
	if m.FAUpdate.Time >= m.DRAMRefresh.Time {
		t.Error("fa table update does not fit inside tRFC")
	}
	if m.PAUpdate.Time >= m.DRAMRefresh.Time {
		t.Error("pa table update does not fit inside tRFC")
	}
	// Count operations must fit inside tRC so counting never stalls ACTs.
	if m.FACount.Time >= m.DRAMActPre.Time || m.PACountAllSets.Time >= m.DRAMActPre.Time {
		t.Error("count operation slower than tRC")
	}
}

func TestPaperEnergyOverheads(t *testing.T) {
	// §7.1: fa-TWiCe count ≈ 0.7% of ACT/PRE; update ≈ 0.5% of refresh.
	m := Table3()
	if got := m.FACount.NanoJ / m.DRAMActPre.NanoJ; math.Abs(got-0.007) > 0.001 {
		t.Errorf("fa count overhead = %.4f, want ≈ 0.007", got)
	}
	if got := m.FAUpdate.NanoJ / m.DRAMRefresh.NanoJ; math.Abs(got-0.005) > 0.001 {
		t.Errorf("fa update overhead = %.4f, want ≈ 0.005", got)
	}
	// pa-TWiCe is cheaper on both paths (§7.1: 55% and 29% lower).
	if m.PACountPreferred.NanoJ >= m.FACount.NanoJ {
		t.Error("pa preferred count not cheaper than fa")
	}
	if m.PAUpdate.NanoJ >= m.FAUpdate.NanoJ {
		t.Error("pa update not cheaper than fa")
	}
}

func TestAggregateFA(t *testing.T) {
	m := Table3()
	cnt := stats.Counters{NormalACTs: 1000, DefenseACTs: 2, Refreshes: 10}
	ops := core.OpStats{Searches: 1000, Prunes: 10}
	b := m.Aggregate(cnt, ops, core.FA, 16)
	wantActs := 1002 * 11.49
	if math.Abs(b.DRAMActPreNJ-wantActs) > 1e-9 {
		t.Errorf("ACT energy = %v, want %v", b.DRAMActPreNJ, wantActs)
	}
	if math.Abs(b.DRAMRefreshNJ-10*16*132.25) > 1e-9 {
		t.Errorf("refresh energy = %v", b.DRAMRefreshNJ)
	}
	if math.Abs(b.CountNJ-1000*0.082) > 1e-9 {
		t.Errorf("count energy = %v", b.CountNJ)
	}
	// The simulated mix reproduces the paper's sub-1% overheads.
	if b.CountOverhead() > 0.008 {
		t.Errorf("count overhead = %v, want < 0.8%%", b.CountOverhead())
	}
	if b.UpdateOverhead() > 0.005 {
		t.Errorf("update overhead = %v, want < 0.5%%", b.UpdateOverhead())
	}
	if !strings.Contains(b.String(), "count=") {
		t.Errorf("String() = %q", b.String())
	}
}

func TestAggregatePAPreferredPathSavesEnergy(t *testing.T) {
	m := Table3()
	cnt := stats.Counters{NormalACTs: 1000, Refreshes: 10}
	allPreferred := core.OpStats{Searches: 1000, PreferredHits: 1000, Prunes: 10}
	nonePreferred := core.OpStats{Searches: 1000, PreferredHits: 0, Prunes: 10}
	cheap := m.Aggregate(cnt, allPreferred, core.PA, 16)
	costly := m.Aggregate(cnt, nonePreferred, core.PA, 16)
	if cheap.CountNJ >= costly.CountNJ {
		t.Errorf("preferred-set path not cheaper: %v vs %v", cheap.CountNJ, costly.CountNJ)
	}
	// The all-preferred case must beat fa-TWiCe (the §6.1 motivation).
	fa := m.Aggregate(cnt, core.OpStats{Searches: 1000, Prunes: 10}, core.FA, 16)
	if cheap.CountNJ >= fa.CountNJ {
		t.Errorf("pa common case (%v nJ) not cheaper than fa (%v nJ)", cheap.CountNJ, fa.CountNJ)
	}
}

func TestEmptyBreakdownOverheads(t *testing.T) {
	var b Breakdown
	if b.CountOverhead() != 0 || b.UpdateOverhead() != 0 {
		t.Error("zero breakdown must report zero overheads")
	}
}

func TestAreaModelMatchesPaper(t *testing.T) {
	cfg := core.NewConfig(dram.DDR4_2400())
	a := AreaModel(cfg)
	// §7.1: 1+17+15+13 = 46-bit wide entries, 33-bit narrow entries.
	if a.BitsPerWide != 46 {
		t.Errorf("wide entry bits = %d, want 46", a.BitsPerWide)
	}
	if a.BitsPerNarrow != 33 {
		t.Errorf("narrow entry bits = %d, want 33", a.BitsPerNarrow)
	}
	if a.NarrowEntries != 124 {
		t.Errorf("narrow entries = %d, want 124", a.NarrowEntries)
	}
	// The paper reports 2.71 KB/GB with 553 entries; our bound gives 556
	// entries and ≈ 2.9 KB. Assert the same magnitude.
	kb := a.BytesPerGB / 1024
	if kb < 2.4 || kb > 3.2 {
		t.Errorf("table KB per GB = %.2f, want ≈ 2.7-2.9", kb)
	}
	if a.SBIndicatorBytes < 40 || a.SBIndicatorBytes > 80 {
		t.Errorf("SB indicator bytes = %d, want ≈ 54", a.SBIndicatorBytes)
	}
}

func TestAreaScalesWithRows(t *testing.T) {
	small := dram.DDR4_2400()
	small.RowsPerBank = 65536
	a := AreaModel(core.NewConfig(dram.DDR4_2400()))
	b := AreaModel(core.NewConfig(small))
	if b.BitsPerWide >= a.BitsPerWide {
		t.Errorf("smaller banks should shrink row_addr bits: %d vs %d", b.BitsPerWide, a.BitsPerWide)
	}
}
