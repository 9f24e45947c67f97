package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/dram"
)

// testParams returns a scaled-down configuration for fast unit tests:
// maxlife 16, thPI 4, maxact 20, table bound 36.
func testParams() dram.Params {
	p := dram.DDR4_2400()
	p.Channels = 1
	p.RanksPerChannel = 1
	p.BanksPerRank = 1
	p.BankGroups = 1
	p.RowsPerBank = 4096
	p.SpareRowsPerBank = 16
	p.TREFW = 16 * clock.Microsecond // maxlife = 16
	p.TREFI = 1 * clock.Microsecond
	p.TRFC = 100 * clock.Nanosecond // maxact = (1µs−100ns)/45ns = 20
	p.NTh = 1024
	return p
}

func testConfig(org Org) Config {
	cfg := NewConfig(testParams())
	cfg.ThRH = 64 // thPI = 64/16 = 4
	cfg.Org = org
	cfg.Ways = 8
	return cfg
}

func bank0() dram.BankID { return dram.BankID{} }

func TestTable2Derivations(t *testing.T) {
	// The headline Table 2 values for the real DDR4-2400 configuration.
	cfg := NewConfig(dram.DDR4_2400())
	if got := cfg.ThPI(); got != 4 {
		t.Errorf("thPI = %d, want 4", got)
	}
	if got := cfg.MaxLife(); got != 8192 {
		t.Errorf("maxlife = %d, want 8192", got)
	}
	if got := cfg.MaxACT(); got != 165 {
		t.Errorf("maxact = %d, want 165", got)
	}
	if got := cfg.TableBound(); got != 556 {
		t.Errorf("table bound = %d, want 556 (the paper's 553 is this bound at maxact 164)", got)
	}
	narrow, wide := cfg.SeparatedSizing()
	if narrow != 124 {
		t.Errorf("narrow entries = %d, want 124 (paper §6.2)", narrow)
	}
	if wide != 432 {
		t.Errorf("wide entries = %d, want 432 (paper: 429)", wide)
	}
}

// TestConfigValidate checks each config through New, which must return
// Validate's error.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Config)
		ok   bool
	}{
		{"default", func(*Config) {}, true},
		{"fa", func(c *Config) { c.Org = FA }, true},
		{"sep", func(c *Config) { c.Org = Separated }, true},
		{"ways 0", func(c *Config) { c.Ways = 0 }, false},
		{"thRH 0", func(c *Config) { c.ThRH = 0 }, false},
		{"PruneEvery 0", func(c *Config) { c.PruneEvery = 0 }, false},
		{"negative thRH", func(c *Config) { c.ThRH = -1 }, false},
		{"thRH below maxlife", func(c *Config) { c.ThRH = 8 }, false},                // maxlife 16 → thPI 0
		{"thRH above a quarter of Nth", func(c *Config) { c.DRAM.NTh = 100 }, false}, // 4·thRH = 256 > 100
		{"negative PruneEvery", func(c *Config) { c.PruneEvery = -2 }, false},
		{"unknown org", func(c *Config) { c.Org = Org(9) }, false},
		{"negative org", func(c *Config) { c.Org = -1 }, false},
		{"negative ways", func(c *Config) { c.Ways = -4 }, false},
		// DDR4's tREFI puts maxlife near 2^25, so thRH 2^26 clears it and
		// Nth/4; only the maxlife bound rejects this window.
		{"huge refresh window", func(c *Config) {
			c.DRAM.TREFI = dram.DDR4_2400().TREFI
			c.DRAM.TREFW = 1 << 48 * clock.Picosecond
			c.ThRH, c.DRAM.NTh = 1<<26, 1<<28
		}, false},
	}
	for _, tc := range cases {
		cfg := testConfig(PA)
		tc.edit(&cfg)
		if _, err := New(cfg); (err == nil) != tc.ok {
			t.Errorf("%s: New error = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestOrgString(t *testing.T) {
	if FA.String() != "fa" || PA.String() != "pa" || Separated.String() != "sep" {
		t.Error("org names wrong")
	}
	if Org(9).String() != "Org(9)" {
		t.Error("unknown org name wrong")
	}
}

// TestDetectionAtThreshold checks that a row is flagged on its thRH-th ACT,
// at thRH 1 too (maxlife 1: tREFW < 2·tREFI), where the ACT that inserts
// the row, which never detects, makes it the second.
func TestDetectionAtThreshold(t *testing.T) {
	one := testConfig(PA)
	one.DRAM.TREFW, one.ThRH = one.DRAM.TREFI, 1
	for _, base := range []Config{testConfig(PA), one} {
		for _, org := range []Org{FA, PA, Separated} {
			cfg := base
			cfg.Org = org
			tw, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := max(cfg.ThRH, 2)
			var detected int
			for i := 1; i <= want; i++ {
				a := tw.OnActivate(bank0(), 7, 0)
				if a.Detected {
					detected = i
					if len(a.ARRAggressors) != 1 || a.ARRAggressors[0] != 7 {
						t.Errorf("thRH %d %v: ARR aggressors = %v, want [7]", cfg.ThRH, org, a.ARRAggressors)
					}
				}
			}
			if detected != want {
				t.Errorf("thRH %d %v: detected at ACT %d, want %d", cfg.ThRH, org, detected, want)
			}
			// Entry deallocated on detection: the row restarts from scratch.
			if _, ok := lookup(tw.TableFor(bank0()), 7); ok {
				t.Errorf("thRH %d %v: entry still tracked after detection", cfg.ThRH, org)
			}
			if tw.Detections() != 1 {
				t.Errorf("thRH %d %v: detections = %d, want 1", cfg.ThRH, org, tw.Detections())
			}
		}
	}
}

func TestNoDetectionBelowThreshold(t *testing.T) {
	tw, err := New(testConfig(FA))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tw.Config().ThRH-1; i++ {
		if a := tw.OnActivate(bank0(), 3, 0); a.Detected {
			t.Fatalf("detected at ACT %d, below thRH", i+1)
		}
	}
}

func TestPruneRule(t *testing.T) {
	// A row with exactly thPI ACTs per PI survives; one below is pruned.
	tw, err := New(testConfig(FA))
	if err != nil {
		t.Fatal(err)
	}
	thPI := tw.Config().ThPI()
	// Row 1: thPI ACTs per PI (survivor); row 2: thPI−1 per PI (pruned).
	for i := 0; i < thPI; i++ {
		tw.OnActivate(bank0(), 1, 0)
	}
	for i := 0; i < thPI-1; i++ {
		tw.OnActivate(bank0(), 2, 0)
	}
	tw.OnRefreshTick(bank0(), 0)
	tb := tw.TableFor(bank0())
	e1, ok1 := lookup(tb, 1)
	if !ok1 {
		t.Fatal("row meeting thPI was pruned")
	}
	if e1.Life != 2 {
		t.Errorf("survivor life = %d, want 2", e1.Life)
	}
	if _, ok := lookup(tb, 2); ok {
		t.Error("row below thPI survived the prune")
	}
	// Second interval: the survivor now needs 2·thPI cumulative.
	for i := 0; i < thPI-1; i++ {
		tw.OnActivate(bank0(), 1, 0)
	}
	tw.OnRefreshTick(bank0(), 0)
	if _, ok := lookup(tb, 1); ok {
		t.Error("row below cumulative thPI·life survived the second prune")
	}
}

func TestSlowAttackStillDetected(t *testing.T) {
	// The §4.3 guarantee: a row activated at exactly thPI per PI is never
	// pruned and is detected once its cumulative count reaches thRH, even
	// though it is never "hot" in any single interval.
	tw, err := New(testConfig(FA))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tw.Config()
	acts, detected := 0, false
	for pi := 0; pi < cfg.MaxLife() && !detected; pi++ {
		for i := 0; i < cfg.ThPI(); i++ {
			acts++
			if a := tw.OnActivate(bank0(), 9, 0); a.Detected {
				detected = true
				break
			}
		}
		if !detected {
			tw.OnRefreshTick(bank0(), 0)
		}
	}
	if !detected {
		t.Fatalf("slow attack undetected after %d ACTs (thRH = %d)", acts, cfg.ThRH)
	}
	if acts != cfg.ThRH {
		t.Errorf("detected after %d ACTs, want exactly thRH = %d", acts, cfg.ThRH)
	}
}

func TestTheoremCombinedCountBelowTwiceThRH(t *testing.T) {
	// §4.3: over one refresh window a row can accumulate at most
	// 2·thRH − 1 ACTs without detection: up to thRH−1 while untracked
	// (pruned away) plus up to thRH−1 while tracked... combined < 2·thRH.
	// Adversary strategy: alternate "thPI−1 per PI" (pruned every interval)
	// as long as possible, then burst.
	tw, err := New(testConfig(FA))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tw.Config()
	total, detected := 0, false
	for pi := 0; pi < cfg.MaxLife(); pi++ {
		for i := 0; i < cfg.ThPI()-1; i++ { // stay under the prune bar
			total++
			if a := tw.OnActivate(bank0(), 5, 0); a.Detected {
				detected = true
			}
		}
		tw.OnRefreshTick(bank0(), 0)
	}
	// Now burst to the detection threshold.
	for !detected && total < 2*cfg.ThRH+10 {
		total++
		if a := tw.OnActivate(bank0(), 5, 0); a.Detected {
			detected = true
		}
	}
	if !detected {
		t.Fatalf("no detection after %d ACTs", total)
	}
	if total >= 2*cfg.ThRH {
		t.Errorf("row accumulated %d ACTs before detection, theorem bound is < 2·thRH = %d", total, 2*cfg.ThRH)
	}
}

func TestOrganizationEquivalence(t *testing.T) {
	// All three organizations must produce identical counting behaviour:
	// same detections at the same stream positions and identical table
	// contents after any interleaving of ACTs and prune ticks.
	cfgs := []Config{testConfig(FA), testConfig(PA), testConfig(Separated)}
	for seed := int64(0); seed < 5; seed++ {
		engines := make([]*TWiCe, len(cfgs))
		for i, c := range cfgs {
			var err error
			engines[i], err = New(c)
			if err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		maxact := cfgs[0].MaxACT()
		actsSincePrune := 0
		for step := 0; step < 20000; step++ {
			// Respect DRAM pacing: at most maxact ACTs per pruning interval
			// (the premise of the §4.4 sizing theorem), plus random early
			// prune ticks.
			if actsSincePrune >= maxact || rng.Intn(100) == 0 {
				for _, e := range engines {
					e.OnRefreshTick(bank0(), 0)
				}
				actsSincePrune = 0
				continue
			}
			actsSincePrune++
			var row int
			if rng.Intn(4) == 0 {
				row = rng.Intn(8) // hot rows
			} else {
				row = rng.Intn(2000)
			}
			var first defense.Action
			for i, e := range engines {
				a := e.OnActivate(bank0(), row, 0)
				if i == 0 {
					first = a
				} else if a.Detected != first.Detected {
					t.Fatalf("seed %d step %d: %s detection diverges from fa", seed, step, e.Name())
				}
			}
		}
		base := snapshotSorted(engines[0].TableFor(bank0()))
		for _, e := range engines[1:] {
			got := snapshotSorted(e.TableFor(bank0()))
			if len(got) != len(base) {
				t.Fatalf("seed %d: %s table has %d entries, fa has %d", seed, e.Name(), len(got), len(base))
			}
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("seed %d: %s entry %d = %+v, fa has %+v", seed, e.Name(), i, got[i], base[i])
				}
			}
		}
	}
}

func snapshotSorted(tb Table) []Entry {
	s := tb.Snapshot()
	sort.Slice(s, func(i, j int) bool { return s[i].Row < s[j].Row })
	return s
}

// boundWitness reads tableBound's recurrence as an ACT schedule on bank 0
// and returns the bank's peak occupancy. Cohort n, the rows with life n in
// the last PI, has the recurrence's size and needs (n−1)·thPI ACTs a row.
// Each PI first gives every live cohort the minimum it needs to survive the
// coming prune, then spends the rest of maxact on the newborn cohort and
// then older ones, youngest first (the recurrence's leftover carry); the
// last PI activates maxact fresh rows. Rows are rowStride apart.
func boundWitness(t *testing.T, tw *TWiCe, rowStride int) int {
	t.Helper()
	cfg := tw.Config()
	maxact, thPI, maxLife := cfg.MaxACT(), cfg.ThPI(), cfg.MaxLife()
	type cohort struct {
		born, need, first int
		acts              []int
	}
	var cohorts []*cohort // youngest first
	rows, leftover := 0, 0
	for n := 2; n <= maxLife; n++ {
		need, budget := (n-1)*thPI, maxact+leftover
		leftover = budget % need
		if k := budget / need; k > 0 {
			cohorts = append(cohorts, &cohort{born: maxLife - n, need: need, first: rows, acts: make([]int, k)})
			rows += k
		}
	}
	budget := 0
	act := func(row int) {
		budget--
		if a := tw.OnActivate(bank0(), row*rowStride, 0); !a.Empty() {
			t.Fatalf("ACT of row %d returned %+v; want no detection and no overflow ARR", row, a)
		}
	}
	for pi := 0; pi < maxLife-1; pi++ {
		budget = maxact
		for _, c := range cohorts {
			for i := range c.acts {
				for ; c.born <= pi && c.acts[i] < min(c.need, (pi-c.born+1)*thPI); c.acts[i]++ {
					act(c.first + i)
				}
			}
		}
		for _, c := range cohorts {
			for spent := true; c.born <= pi && budget > 0 && spent; {
				spent = false
				for i := range c.acts {
					if budget > 0 && c.acts[i] < c.need {
						act(c.first + i)
						c.acts[i]++
						spent = true
					}
				}
			}
		}
		if budget < 0 {
			t.Fatalf("PI %d: %d ACTs, over maxact %d", pi, maxact-budget, maxact)
		}
		tw.OnRefreshTick(bank0(), 0)
	}
	for i := 0; i < maxact; i++ {
		act(rows + i)
	}
	return tw.TableFor(bank0()).Ops().PeakOccupancy
}

// TestTableBoundNeverExceeded pins TableBound as tight: a stream that never
// exceeds maxact ACTs per PI fills the table to exactly TableBound for every
// organization, and pa's set borrowing holds it even when every row prefers
// one set. At Table 2's parameters that is 556 entries (the paper's 553 is
// the same bound at maxact 164; EXPERIMENTS.md, deviation 1).
func TestTableBoundNeverExceeded(t *testing.T) {
	for j, base := range []Config{testConfig(PA), NewConfig(dram.DDR4_2400())} {
		want := []int{36, 556}[j]
		for i, org := range []Org{FA, PA, Separated, PA} {
			oneSet := i == 3 // every row in one pa preferred set
			cfg := base
			cfg.Org = org
			t.Run(fmt.Sprintf("bound %d %v one set %v", want, org, oneSet), func(t *testing.T) {
				tw, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				stride := 1
				if oneSet {
					stride = tw.TableFor(bank0()).(*paTable).Sets()
				}
				if peak, bound := boundWitness(t, tw, stride), cfg.TableBound(); peak != bound || bound != want {
					t.Fatalf("peak occupancy %d, TableBound() %d, want both %d", peak, bound, want)
				}
				if d := tw.Detections(); d != 0 {
					t.Fatalf("%d detections, want 0", d)
				}
			})
		}
	}
}

func TestResetClearsState(t *testing.T) {
	tw, err := New(testConfig(PA))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tw.OnActivate(bank0(), i, 0)
	}
	if tw.TableFor(bank0()).Len() == 0 {
		t.Fatal("setup failed")
	}
	tw.Reset()
	if got := tw.TableFor(bank0()).Len(); got != 0 {
		t.Errorf("table has %d entries after reset", got)
	}
}

func TestPruneEveryStretchesInterval(t *testing.T) {
	cfg := testConfig(FA)
	cfg.PruneEvery = 4
	cfg.ThRH = 256 // keep thPI = 256/(16/4) = ... maxlife = 16/4 = 4; thPI = 64
	tw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tw.OnActivate(bank0(), 1, 0)
	for i := 0; i < 3; i++ {
		tw.OnRefreshTick(bank0(), 0)
		if _, ok := lookup(tw.TableFor(bank0()), 1); !ok {
			t.Fatalf("pruned at tick %d, before PruneEvery = 4", i+1)
		}
	}
	tw.OnRefreshTick(bank0(), 0)
	if _, ok := lookup(tw.TableFor(bank0()), 1); ok {
		t.Error("cold row survived the stretched pruning interval")
	}
}

func TestMultiBankIndependence(t *testing.T) {
	p := testParams()
	p.BanksPerRank = 2
	p.BankGroups = 1
	cfg := NewConfig(p)
	cfg.ThRH = 64
	tw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b0 := dram.BankID{Bank: 0}
	b1 := dram.BankID{Bank: 1}
	for i := 0; i < 63; i++ {
		tw.OnActivate(b0, 7, 0)
	}
	// Bank 1's counter for the same row index is independent.
	if a := tw.OnActivate(b1, 7, 0); a.Detected {
		t.Fatal("bank 1 detection from bank 0 counts")
	}
	if a := tw.OnActivate(b0, 7, 0); !a.Detected {
		t.Fatal("bank 0 should detect at thRH")
	}
}

// TestOverflowDegradesToImmediateARR fills each organization's table to
// Cap() (pa's whole sets, past TableBound) by outrunning DRAM pacing. The
// engine must not lose protection: an untrackable row gets an immediate
// conservative ARR rather than going unmonitored, whether it is a fresh row
// or, in the separated table, a row graduating into a full wide sub-table.
func TestOverflowDegradesToImmediateARR(t *testing.T) {
	fill := func(t *testing.T, org Org) *TWiCe {
		tw, err := New(testConfig(org))
		if err != nil {
			t.Fatal(err)
		}
		tb := tw.TableFor(bank0())
		for r := 0; r < tb.Cap(); r++ {
			if a := tw.OnActivate(bank0(), r, 0); !a.Empty() {
				t.Fatalf("unexpected action while filling: %+v", a)
			}
		}
		if tb.Len() != tb.Cap() {
			t.Fatalf("filled table holds %d of %d entries", tb.Len(), tb.Cap())
		}
		return tw
	}
	overflow := func(t *testing.T, tw *TWiCe, row int) {
		a := tw.OnActivate(bank0(), row, 0)
		if len(a.ARRAggressors) != 1 || a.ARRAggressors[0] != row || a.Detected {
			t.Errorf("overflow action = %+v, want an immediate ARR for row %d and no detection", a, row)
		}
		if _, ok := lookup(tw.TableFor(bank0()), row); ok {
			t.Errorf("row %d still tracked after the overflow", row)
		}
	}
	for _, org := range []Org{FA, PA, Separated} {
		t.Run(org.String(), func(t *testing.T) {
			tw := fill(t, org)
			overflow(t, tw, tw.TableFor(bank0()).Cap())
		})
	}
	t.Run("sep graduation", func(t *testing.T) {
		tw := fill(t, Separated) // the narrow sub-table takes rows 0–14
		for i := 2; i < tw.Config().ThPI(); i++ {
			if a := tw.OnActivate(bank0(), 0, 0); !a.Empty() {
				t.Fatalf("ACT %d of narrow row 0: %+v", i, a)
			}
		}
		overflow(t, tw, 0) // the thPI-th ACT graduates row 0
	})
}

func TestNameIncludesOrg(t *testing.T) {
	tw, _ := New(testConfig(PA))
	if tw.Name() != "TWiCe-pa" {
		t.Errorf("Name() = %q", tw.Name())
	}
}

// pinStream drives one seeded stream of acts ACTs into bank 0 of tw, with
// a refresh tick after every maxact ACTs, and returns the ARRs requested. A
// quarter of the ACTs hammer row 7, half go to rows that all prefer pa set
// 0 (multiples of the pa set count sets), and the rest to random rows.
func pinStream(tw *TWiCe, sets, acts int) (arrs int64) {
	rng := rand.New(rand.NewSource(25))
	maxact := tw.Config().MaxACT()
	for i := 1; i <= acts; i++ {
		row := 7
		switch r := rng.Intn(8); {
		case r >= 6:
			row = rng.Intn(1 << 16)
		case r >= 2:
			row = rng.Intn(256) * sets
		}
		arrs += int64(len(tw.OnActivate(bank0(), row, 0).ARRAggressors))
		if i%maxact == 0 {
			tw.OnRefreshTick(bank0(), 0)
		}
	}
	return arrs
}

// TestEngineOpStatsPinned pins the energy model's inputs: the whole Ops()
// of TWiCe-fa, TWiCe-pa and TWiCe-sep, the detections and the ARRs after
// one seeded stream, at the test parameters and at Table 2's. No golden
// digest covers SetsProbed, PreferredHits or Spills, and the table-level
// reference test covers pa only. The stream spills in pa and sep and
// detects in every organization.
func TestEngineOpStatsPinned(t *testing.T) {
	type want struct {
		ops        OpStats
		detections int64
	}
	for _, c := range []struct {
		name string
		cfg  Config
		want [3]want // fa, pa, sep; every ARR is a detection's
	}{
		{"test", testConfig(PA), [3]want{
			{OpStats{Searches: 400000, SetsProbed: 400000, PreferredHits: 100594, Inserts: 299406, Spills: 0, Removes: 1446, Prunes: 20000, EntriesPruned: 297959, PeakOccupancy: 21}, 1446},
			{OpStats{Searches: 400000, SetsProbed: 441594, PreferredHits: 100281, Inserts: 299406, Spills: 58337, Removes: 1446, Prunes: 20000, EntriesPruned: 297959, PeakOccupancy: 21}, 1446},
			{OpStats{Searches: 400000, SetsProbed: 400000, PreferredHits: 0, Inserts: 299406, Spills: 14300, Removes: 1446, Prunes: 20000, EntriesPruned: 297959, PeakOccupancy: 21}, 1446},
		}},
		{"table2", NewConfig(dram.DDR4_2400()), [3]want{
			{OpStats{Searches: 400000, SetsProbed: 400000, PreferredHits: 129101, Inserts: 270899, Spills: 0, Removes: 3, Prunes: 2424, EntriesPruned: 270867, PeakOccupancy: 128}, 3},
			{OpStats{Searches: 400000, SetsProbed: 425714, PreferredHits: 128277, Inserts: 270899, Spills: 27181, Removes: 3, Prunes: 2424, EntriesPruned: 270867, PeakOccupancy: 128}, 3},
			{OpStats{Searches: 400000, SetsProbed: 400000, PreferredHits: 0, Inserts: 270899, Spills: 33, Removes: 3, Prunes: 2424, EntriesPruned: 270867, PeakOccupancy: 128}, 3},
		}},
	} {
		sets := (c.cfg.TableBound() + c.cfg.Ways - 1) / c.cfg.Ways
		for i, org := range []Org{FA, PA, Separated} {
			cfg := c.cfg
			cfg.Org = org
			tw, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			arrs := pinStream(tw, sets, 400000)
			w := c.want[i]
			if ops := tw.Ops(); ops != w.ops {
				t.Errorf("%s %v: Ops()\n got  %+v\n want %+v", c.name, org, ops, w.ops)
			}
			if d := tw.Detections(); d != w.detections || arrs != w.detections {
				t.Errorf("%s %v: %d detections, %d ARRs; want %d of each", c.name, org, d, arrs, w.detections)
			}
		}
	}
}
