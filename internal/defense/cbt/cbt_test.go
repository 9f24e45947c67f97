package cbt

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/mc"
	"repro/internal/workload"
)

func params() dram.Params {
	p := dram.DDR4_2400()
	p.Channels, p.RanksPerChannel, p.BanksPerRank = 1, 1, 1
	p.BankGroups = 1
	p.RowsPerBank = 1024
	p.SpareRowsPerBank = 8
	return p
}

func smallConfig() Config {
	return Config{Counters: 8, Threshold: 64, Levels: 4, DRAM: params()}
}

func bank0() dram.BankID { return dram.BankID{} }

func TestConfigValidate(t *testing.T) {
	if err := NewConfig(dram.DDR4_2400()).Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
	bad := smallConfig()
	bad.Counters = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero counters accepted")
	}
	bad = smallConfig()
	bad.Levels = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero levels accepted")
	}
	bad = smallConfig()
	bad.Levels = 30 // 2^29 ranges > 1024 rows
	if err := bad.Validate(); err == nil {
		t.Error("too-deep tree accepted")
	}
	bad = smallConfig()
	bad.Threshold = 1
	if err := bad.Validate(); err == nil {
		t.Error("tiny threshold accepted")
	}
}

func TestName(t *testing.T) {
	c, err := New(NewConfig(dram.DDR4_2400()))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "CBT-256" {
		t.Errorf("Name() = %q", c.Name())
	}
}

func TestSubThresholdSchedule(t *testing.T) {
	cfg := NewConfig(dram.DDR4_2400())
	prev := 0
	for l := 0; l < cfg.Levels; l++ {
		st := cfg.subThreshold(l)
		if st < prev {
			t.Errorf("sub-threshold at level %d = %d, decreasing", l, st)
		}
		prev = st
	}
	if got := cfg.subThreshold(cfg.Levels - 1); got != cfg.Threshold {
		t.Errorf("deepest sub-threshold = %d, want top threshold %d", got, cfg.Threshold)
	}
	// Geometric halving per level up from the top.
	if got := cfg.subThreshold(cfg.Levels - 2); got != cfg.Threshold/2 {
		t.Errorf("next-deepest sub-threshold = %d, want %d", got, cfg.Threshold/2)
	}
	// Tiny thresholds clamp at 2 so splits still need evidence.
	small := cfg
	small.Threshold = 4
	if got := small.subThreshold(0); got != 2 {
		t.Errorf("clamped sub-threshold = %d, want 2", got)
	}
}

func TestTreeSplitsOnHotRange(t *testing.T) {
	c, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Leaves(bank0()) != 1 {
		t.Fatalf("fresh tree has %d leaves", c.Leaves(bank0()))
	}
	// Geometric schedule: level-0 sub-threshold = 64>>3 = 8, so the root
	// splits on the 8th ACT (and the hot child soon after).
	for i := 0; i < 7; i++ {
		c.OnActivate(bank0(), 100, 0)
	}
	if got := c.Leaves(bank0()); got != 1 {
		t.Fatalf("leaves = %d before the sub-threshold, want 1", got)
	}
	c.OnActivate(bank0(), 100, 0)
	if got := c.Leaves(bank0()); got < 2 {
		t.Errorf("leaves = %d after crossing level-0 sub-threshold, want ≥ 2", got)
	}
}

func TestSingleRowAttackRefreshesLeafRange(t *testing.T) {
	// The S3 shape: hammering one row drives splits down to the deepest
	// level, then every Threshold ACTs refresh the leaf range
	// (rows/2^(levels-1) rows + edge neighbours).
	cfg := smallConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var victims, detections int
	acts := 10 * cfg.Threshold
	for i := 0; i < acts; i++ {
		a := c.OnActivate(bank0(), 0, 0)
		victims += len(a.LogicalVictims)
		if a.Detected {
			detections++
		}
	}
	if detections == 0 {
		t.Fatal("no range refreshes under a single-row hammer")
	}
	leafRange := cfg.DRAM.RowsPerBank >> (cfg.Levels - 1) // 128
	perRefresh := victims / detections
	if perRefresh < leafRange || perRefresh > leafRange+2 {
		t.Errorf("avg refresh burst = %d rows, want ≈ leaf range %d", perRefresh, leafRange)
	}
	// Overhead ratio ≈ leafRange/Threshold (the paper's 128/32768 = 0.39%).
	ratio := float64(victims) / float64(acts)
	want := float64(leafRange) / float64(cfg.Threshold)
	if ratio < want*0.8 || ratio > want*1.6 {
		t.Errorf("additional-ACT ratio = %.4f, want ≈ %.4f", ratio, want)
	}
}

func TestCounterPoolBounded(t *testing.T) {
	cfg := smallConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		c.OnActivate(bank0(), (i*37)%cfg.DRAM.RowsPerBank, 0)
		if got := c.Leaves(bank0()); got > cfg.Counters {
			t.Fatalf("leaves = %d exceeds pool %d", got, cfg.Counters)
		}
	}
}

func TestDoubleCountingOnSplit(t *testing.T) {
	// Children are initialised to the parent's count, so an attacker's
	// count is never lost by a split (conservative over-counting).
	cfg := smallConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 8 ACTs to row 0 split the root (geometric level-0 threshold 64>>3);
	// both children are initialised to the parent's count 8.
	for i := 0; i < 8; i++ {
		c.OnActivate(bank0(), 0, 0)
	}
	tr := c.trees[0]
	if tr.root.leaf() {
		t.Fatal("root did not split")
	}
	if tr.root.right.count != 8 {
		t.Errorf("cold child count = %d, want the inherited 8", tr.root.right.count)
	}
	if tr.root.left.count < 8 {
		t.Errorf("hot child count = %d, want ≥ inherited 8", tr.root.left.count)
	}
}

func TestTreeResetsEveryRefreshWindow(t *testing.T) {
	cfg := smallConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		c.OnActivate(bank0(), i%64, 0)
	}
	if c.Leaves(bank0()) == 1 {
		t.Fatal("warm-up did not split")
	}
	ticks := cfg.DRAM.RefreshTicksPerWindow()
	for i := 0; i < ticks; i++ {
		c.OnRefreshTick(bank0(), 0)
	}
	if got := c.Leaves(bank0()); got != 1 {
		t.Errorf("leaves = %d after tREFW of ticks, want 1 (tree reset)", got)
	}
}

func TestResetClearsAllBanks(t *testing.T) {
	cfg := smallConfig()
	cfg.DRAM.BanksPerRank = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		c.OnActivate(dram.BankID{Bank: 1}, i%64, 0)
	}
	c.Reset()
	if got := c.Leaves(dram.BankID{Bank: 1}); got != 1 {
		t.Errorf("bank 1 leaves = %d after Reset", got)
	}
}

func TestRefreshCoversRangeEdges(t *testing.T) {
	// Range refreshes must include the rows adjacent to the range edges
	// (they are victims of the edge rows inside the range).
	cfg := smallConfig()
	cfg.Counters = 1 // the root can never split
	cfg.Levels = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for i := 0; i < cfg.Threshold; i++ {
		if a := c.OnActivate(bank0(), 5, 0); len(a.LogicalVictims) > 0 {
			got = a.LogicalVictims
		}
	}
	if len(got) != cfg.DRAM.RowsPerBank {
		t.Errorf("root-range refresh covered %d rows, want all %d", len(got), cfg.DRAM.RowsPerBank)
	}
}

// TestS2SweepBurstsAtPaperScale drives the paper-parameter CBT directly with
// the S2 pattern (no memory-system simulation, so 6M activations run in
// seconds) and asserts the Figure 7(b) S2 behaviour: the first-half sweep
// exhausts the counter pool, and the second-half sweep then drives coarse
// counters over the top threshold, forcing refresh bursts that dwarf every
// other scheme's overhead.
func TestS2SweepBurstsAtPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("6M-activation direct drive")
	}
	p := dram.DDR4_2400()
	p.Channels, p.RanksPerChannel, p.BanksPerRank = 1, 1, 1
	p.BankGroups = 1
	cfg := NewConfig(p)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	amap, err := mc.NewAddrMap(p)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.S2(amap, p, cfg.Threshold).Gens[0]
	acts, extra, fires := 0, 0, 0
	for i := 0; i < 6_000_000; i++ {
		row := amap.Decompose(g.Next().Addr).Row
		a := c.OnActivate(bank0(), row, 0)
		acts++
		extra += len(a.LogicalVictims)
		if a.Detected {
			fires++
		}
		if acts%p.MaxACTsPerRefreshInterval() == 0 {
			c.OnRefreshTick(bank0(), 0)
		}
	}
	ratio := float64(extra) / float64(acts)
	t.Logf("S2 vs CBT-256 at paper scale: ratio=%.2f%% fires=%d", 100*ratio, fires)
	if ratio < 0.04 {
		t.Errorf("S2 ratio = %.4f, want ≫ PARA's 0.002 (paper: 0.0482)", ratio)
	}
	if fires == 0 {
		t.Error("no refresh bursts")
	}
	if avg := extra / max(fires, 1); avg < 1000 {
		t.Errorf("avg burst = %d rows; S2 must trigger coarse-range refreshes", avg)
	}
}
