package analysis

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dram"
)

func TestDeriveMatchesTable2(t *testing.T) {
	d := Derive(core.NewConfig(dram.DDR4_2400()))
	if d.ThRH != 32768 || d.ThPI != 4 || d.MaxLife != 8192 || d.MaxACT != 165 {
		t.Errorf("derived = %+v", d)
	}
	if d.PruneInterval != 7812500*clock.Picosecond {
		t.Errorf("PI = %v", d.PruneInterval)
	}
	if d.TableBound != 556 {
		t.Errorf("bound = %d, want 556 (the paper's 553 is this bound at maxact 164)", d.TableBound)
	}
	if d.NarrowEntries != 124 || d.WideEntries != 432 {
		t.Errorf("separated sizing = %d/%d", d.NarrowEntries, d.WideEntries)
	}
	if !strings.Contains(d.String(), "thRH=32768") {
		t.Errorf("String() = %q", d.String())
	}
}

func TestMaxAggressorsMatchesSection41(t *testing.T) {
	// §4.1: with tRC = 45 ns (the paper's analysis uses 48 ns and Nth =
	// 139K, yielding "up to 20 rows"), the bound stays ≈ 20.
	got := MaxAggressors(dram.DDR4_2400())
	if got < 15 || got > 25 {
		t.Errorf("max aggressors = %d, want ≈ 20", got)
	}
}

func TestMaxAggressorsScalesWithThreshold(t *testing.T) {
	p := dram.DDR4_2400()
	base := MaxAggressors(p)
	p.NTh /= 2 // weaker DRAM: more rows can be hammered
	if got := MaxAggressors(p); got < 2*base-2 {
		t.Errorf("halving Nth gave %d aggressors, want ≈ 2×%d", got, base)
	}
}

func TestMonitorAcceptsBoundedRows(t *testing.T) {
	m := NewMonitor(100, 4)
	for pi := 0; pi < 20; pi++ {
		for i := 0; i < 99; i++ { // just below thRH per window slice
			if !m.OnACT(7) {
				t.Fatalf("false violation at PI %d", pi)
			}
		}
		m.OnPruneTick()
		m.OnPruneTick()
		m.OnPruneTick()
		m.OnPruneTick() // full window rolls over: counts expire
	}
	if len(m.Violations()) != 0 {
		t.Errorf("violations = %v", m.Violations())
	}
}

func TestMonitorCatchesUndetectedHammer(t *testing.T) {
	m := NewMonitor(100, 4)
	flagged := false
	for i := 0; i < 250; i++ {
		if !m.OnACT(3) {
			flagged = true
		}
	}
	if !flagged {
		t.Fatal("200th ACT within one window not flagged")
	}
	v := m.Violations()
	if len(v) != 1 || v[0].Row != 3 || v[0].Count != 200 {
		t.Errorf("violations = %v", v)
	}
	if !strings.Contains(v[0].Error(), "row 3") {
		t.Errorf("error = %q", v[0].Error())
	}
}

func TestMonitorDetectionResetsWindow(t *testing.T) {
	m := NewMonitor(100, 4)
	for i := 0; i < 150; i++ {
		m.OnACT(3)
	}
	m.OnDetected(3) // defense refreshed the victims
	for i := 0; i < 150; i++ {
		if !m.OnACT(3) {
			t.Fatal("violation despite intervening detection")
		}
	}
	if len(m.Violations()) != 0 {
		t.Errorf("violations = %v", m.Violations())
	}
}

// TestTWiCeSatisfiesTheoremUnderOracle drives TWiCe and the Monitor with the
// same random DRAM-paced traces and asserts the oracle never fires: the
// engine always detects before any row reaches 2·thRH in a window.
func TestTWiCeSatisfiesTheoremUnderOracle(t *testing.T) {
	p := dram.DDR4_2400()
	p.Channels, p.RanksPerChannel, p.BanksPerRank = 1, 1, 1
	p.BankGroups = 1
	p.TREFW = 16 * clock.Microsecond // maxlife 16
	p.TREFI = 1 * clock.Microsecond
	p.TRFC = 100 * clock.Nanosecond // maxact 20
	p.NTh = 1024
	cfg := core.NewConfig(p)
	cfg.ThRH = 64

	for seed := int64(0); seed < 10; seed++ {
		tw, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		oracle := NewMonitor(cfg.ThRH, cfg.MaxLife())
		rng := rand.New(rand.NewSource(seed))
		bank := dram.BankID{}
		for pi := 0; pi < 3*cfg.MaxLife(); pi++ {
			for i := 0; i < cfg.MaxACT(); i++ {
				var row int
				if rng.Intn(3) == 0 {
					row = rng.Intn(4) // hot rows likely to hammer
				} else {
					row = rng.Intn(500)
				}
				a := tw.OnActivate(bank, row, 0)
				oracle.OnACT(row)
				if a.Detected {
					oracle.OnDetected(row)
				}
			}
			tw.OnRefreshTick(bank, 0)
			oracle.OnPruneTick()
		}
		if v := oracle.Violations(); len(v) != 0 {
			t.Fatalf("seed %d: theorem violated: %v", seed, v)
		}
	}
}

// TestNopViolatesTheoremUnderOracle sanity-checks the oracle itself: with no
// defense, a hammered row must trip it.
func TestNopViolatesTheoremUnderOracle(t *testing.T) {
	oracle := NewMonitor(64, 16)
	tripped := false
	for i := 0; i < 3*64; i++ {
		if !oracle.OnACT(9) {
			tripped = true
		}
	}
	if !tripped {
		t.Fatal("oracle blind to an undefended hammer")
	}
}
