package dram

import (
	"strings"
	"testing"

	"repro/internal/clock"
)

func TestDDR4DefaultsValidate(t *testing.T) {
	p := DDR4_2400()
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestTable2DerivedValues(t *testing.T) {
	// Table 2 of the paper: with tREFW=64ms, tREFI=7.8µs, tRFC=350ns,
	// tRC=45ns the derived constants are maxact=165 and maxlife=8192.
	p := DDR4_2400()
	if got := p.MaxACTsPerRefreshInterval(); got != 165 {
		t.Errorf("maxact = %d, want 165", got)
	}
	if got := p.RefreshTicksPerWindow(); got != 8192 {
		t.Errorf("refresh ticks per window (maxlife) = %d, want 8192", got)
	}
}

func TestRowsPerRefreshCoversAllRows(t *testing.T) {
	p := DDR4_2400()
	ticks := p.RefreshTicksPerWindow()
	if ticks*p.RowsPerRefresh() < p.RowsPerBank+p.SpareRowsPerBank {
		t.Errorf("refresh schedule does not cover all rows: %d ticks × %d rows < %d",
			ticks, p.RowsPerRefresh(), p.RowsPerBank+p.SpareRowsPerBank)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	base := DDR4_2400()
	mutations := []struct {
		name string
		mut  func(*Params)
	}{
		{"zero channels", func(p *Params) { p.Channels = 0 }},
		{"negative ranks", func(p *Params) { p.RanksPerChannel = -1 }},
		{"zero rows", func(p *Params) { p.RowsPerBank = 0 }},
		{"negative spares", func(p *Params) { p.SpareRowsPerBank = -1 }},
		{"zero tREFW", func(p *Params) { p.TREFW = 0 }},
		{"tREFI below tRFC", func(p *Params) { p.TREFI = p.TRFC }},
		{"tREFW below tREFI", func(p *Params) { p.TREFW = p.TREFI - 1 }},
		{"tRAS+tRP over tRC", func(p *Params) { p.TRAS = p.TRC }},
		{"zero Nth", func(p *Params) { p.NTh = 0 }},
		{"zero blast radius", func(p *Params) { p.BlastRadius = 0 }},
		{"SCF above 1", func(p *Params) { p.SCFRate = 1.5 }},
	}
	for _, m := range mutations {
		p := base
		m.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid params", m.name)
		}
	}
}

// TestValidateRejectsNegativeCommandTimings covers each command timing: a
// negative value is rejected with its name in the error, and zero stays
// legal (a zero tRRD_L or tCCD_L means "use the short value").
func TestValidateRejectsNegativeCommandTimings(t *testing.T) {
	fields := []struct {
		name  string
		field func(*Params) *clock.Time
	}{
		{"tRRD", func(p *Params) *clock.Time { return &p.TRRD }},
		{"tRRD_L", func(p *Params) *clock.Time { return &p.TRRDL }},
		{"tCCD", func(p *Params) *clock.Time { return &p.TCCD }},
		{"tCCD_L", func(p *Params) *clock.Time { return &p.TCCDL }},
		{"tFAW", func(p *Params) *clock.Time { return &p.TFAW }},
		{"tRCD", func(p *Params) *clock.Time { return &p.TRCD }},
		{"tRP", func(p *Params) *clock.Time { return &p.TRP }},
		{"tRAS", func(p *Params) *clock.Time { return &p.TRAS }},
		{"tCL", func(p *Params) *clock.Time { return &p.TCL }},
		{"tWR", func(p *Params) *clock.Time { return &p.TWR }},
		{"tBL", func(p *Params) *clock.Time { return &p.TBL }},
	}
	for _, f := range fields {
		t.Run(f.name, func(t *testing.T) {
			p := DDR4_2400()
			*f.field(&p) = -2 * clock.Picosecond
			err := p.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s = -2ps", f.name)
			}
			if !strings.Contains(err.Error(), f.name+" ") {
				t.Errorf("error %q does not name %s", err, f.name)
			}
			p = DDR4_2400()
			*f.field(&p) = 0
			if err := p.Validate(); err != nil {
				t.Errorf("Validate rejected %s = 0: %v", f.name, err)
			}
		})
	}
}

func TestCapacityArithmetic(t *testing.T) {
	p := DDR4_2400()
	// 131072 rows × 128 cols × 64 B = 1 GiB per bank.
	if got := p.BankCapacityBytes(); got != 1<<30 {
		t.Errorf("bank capacity = %d, want %d", got, int64(1)<<30)
	}
	if got := p.RowBytes(); got != 8192 {
		t.Errorf("row bytes = %d, want 8192 (8 KB DRAM page)", got)
	}
	if got := p.TotalBanks(); got != 64 {
		t.Errorf("total banks = %d, want 64", got)
	}
	if got := p.TotalCapacityBytes(); got != 64<<30 {
		t.Errorf("total capacity = %d, want 64 GiB", got)
	}
}

func TestTimingValuesMatchTable2(t *testing.T) {
	p := DDR4_2400()
	if p.TREFW != 64*clock.Millisecond {
		t.Errorf("tREFW = %v", p.TREFW)
	}
	if p.TREFI != 7812500*clock.Picosecond {
		t.Errorf("tREFI = %v", p.TREFI)
	}
	if p.TRFC != 350*clock.Nanosecond {
		t.Errorf("tRFC = %v", p.TRFC)
	}
	if p.TRC != 45*clock.Nanosecond {
		t.Errorf("tRC = %v", p.TRC)
	}
}
