package prohit

import (
	"math"
	"testing"

	"repro/internal/dram"
)

func params() dram.Params {
	p := dram.DDR4_2400()
	p.Channels, p.RanksPerChannel, p.BanksPerRank = 1, 1, 1
	p.BankGroups = 1
	p.RowsPerBank = 4096
	return p
}

func bank0() dram.BankID { return dram.BankID{} }

func TestConfigValidate(t *testing.T) {
	if err := NewConfig(dram.DDR4_2400()).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		mut  func(*Config)
	}{
		{"zero table", func(c *Config) { c.TableSize = 0 }},
		{"insert probability above 1", func(c *Config) { c.InsertProb = 1.5 }},
		{"insert probability 1", func(c *Config) { c.InsertProb = 1 }},
		{"NaN insert probability", func(c *Config) { c.InsertProb = nan }},
		{"infinite insert probability", func(c *Config) { c.InsertProb = inf }},
		{"zero refresh probability", func(c *Config) { c.RefreshProb = 0 }},
		{"NaN refresh probability", func(c *Config) { c.RefreshProb = nan }},
		{"infinite refresh probability", func(c *Config) { c.RefreshProb = inf }},
		{"NaN SCF rate", func(c *Config) { c.DRAM.SCFRate = nan }},
	} {
		cfg := NewConfig(params())
		c.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", c.name, cfg)
		}
	}
}

func TestHammeredRowGetsBoostedProtection(t *testing.T) {
	cfg := NewConfig(params())
	p, err := New(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Hammer one row; once sampled into the history table its neighbours
	// are refreshed at RefreshProb, far above the PARA-level background.
	const n = 200000
	var refreshes int
	for i := 0; i < n; i++ {
		a := p.OnActivate(bank0(), 42, 0)
		if len(a.LogicalVictims) > 0 {
			refreshes++
		}
	}
	rate := float64(refreshes) / n
	if rate < cfg.RefreshProb/2 {
		t.Errorf("hammered-row refresh rate = %v, want ≈ %v", rate, cfg.RefreshProb)
	}
}

func TestBackgroundRateStaysLow(t *testing.T) {
	cfg := NewConfig(params())
	p, err := New(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500000
	var refreshes int
	for i := 0; i < n; i++ {
		a := p.OnActivate(bank0(), i%4096, 0) // uniform sweep: no hot rows
		if len(a.LogicalVictims) > 0 {
			refreshes++
		}
	}
	rate := float64(refreshes) / n
	// With a uniform sweep most rows are untracked, so the rate should be
	// near the sampling probability, well below the boosted rate.
	if rate > 4*cfg.InsertProb {
		t.Errorf("background refresh rate = %v, want ≈ %v", rate, cfg.InsertProb)
	}
}

func TestTableCapacityBounded(t *testing.T) {
	cfg := NewConfig(params())
	cfg.TableSize = 4
	cfg.InsertProb = 0.5
	p, err := New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		p.OnActivate(bank0(), i%100, 0)
	}
	if got := len(p.tables[0]); got > cfg.TableSize {
		t.Errorf("history table grew to %d, cap is %d", got, cfg.TableSize)
	}
}

func TestNeverDetects(t *testing.T) {
	p, _ := New(NewConfig(params()), 1)
	for i := 0; i < 100000; i++ {
		if a := p.OnActivate(bank0(), 7, 0); a.Detected {
			t.Fatal("PRoHIT claimed detection; it is probabilistic and attack-oblivious")
		}
	}
}

func TestResetClearsTables(t *testing.T) {
	cfg := NewConfig(params())
	cfg.InsertProb = 0.5
	p, _ := New(cfg, 9)
	for i := 0; i < 100; i++ {
		p.OnActivate(bank0(), 7, 0)
	}
	p.Reset()
	if len(p.tables[0]) != 0 {
		t.Error("tables survive Reset")
	}
}
