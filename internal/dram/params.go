// Package dram models DRAM devices at the granularity the row-hammer problem
// lives at: banks, rows, spare-row remapping, periodic refresh, and
// activation-induced disturbance of physically adjacent rows.
//
// The package deliberately does not model data contents; a row's health is
// captured by a disturbance counter that is incremented whenever a physical
// neighbour is activated and reset whenever the row itself is refreshed or
// activated. When the counter passes the vendor row-hammer threshold Nth the
// row records a (simulated) bit flip, which is the failure event every
// defense in this repository exists to prevent.
package dram

import (
	"errors"
	"fmt"

	"repro/internal/clock"
)

// Params describes the organization, timing, and reliability parameters of a
// DRAM configuration. The zero value is not usable; start from DDR4_2400 and
// adjust.
type Params struct {
	// Organization.
	Channels         int // independent memory channels
	RanksPerChannel  int // ranks per channel (devices in a rank act in tandem)
	BanksPerRank     int // banks per rank
	BankGroups       int // bank groups per rank (DDR4: 4); ≤1 disables grouping
	RowsPerBank      int // addressable (logical) rows per bank
	SpareRowsPerBank int // spare physical rows available for remapping
	ColumnsPerRow    int // cache-line sized columns per row
	LineBytes        int // bytes per column access (cache line)

	// Core timing constraints (see JEDEC DDR4; Table 2 of the paper).
	TREFW clock.Time // refresh window: every row refreshed once per tREFW
	TREFI clock.Time // average interval between auto-refresh commands
	TRFC  clock.Time // duration of one auto-refresh command
	TRC   clock.Time // minimum ACT-to-ACT interval within a bank
	TRRD  clock.Time // minimum ACT-to-ACT interval across bank groups (tRRD_S)
	TRRDL clock.Time // minimum ACT-to-ACT interval within a bank group (tRRD_L); 0 = use TRRD
	TFAW  clock.Time // rolling window in which at most four ACTs may issue per rank
	TRCD  clock.Time // ACT to column command delay
	TRP   clock.Time // precharge duration
	TRAS  clock.Time // minimum ACT to PRE interval
	TCL   clock.Time // column read latency
	TWR   clock.Time // write recovery time
	TCCD  clock.Time // column-to-column delay across bank groups (tCCD_S)
	TCCDL clock.Time // column-to-column delay within a bank group (tCCD_L); 0 = use TCCD
	TBL   clock.Time // data burst duration on the bus

	// Reliability.
	NTh         int     // row-hammer threshold: neighbour ACTs within tREFW that may flip a row
	BlastRadius int     // number of physically adjacent rows disturbed on each side of an ACT
	SCFRate     float64 // single-cell-failure rate driving spare-row remapping
}

// DDR4_2400 returns the DDR4-2400 configuration used throughout the paper
// (Tables 2 and 4): 2 channels, 2 ranks/channel, 16 banks/rank, 128K rows per
// 1 GB bank, tREFW 64 ms, tREFI 7.8 µs, tRFC 350 ns, tRC 45 ns, and the
// Nth = 139K row-hammer threshold reported by Kim et al.
func DDR4_2400() Params {
	return Params{
		Channels:         2,
		RanksPerChannel:  2,
		BanksPerRank:     16,
		BankGroups:       4,
		RowsPerBank:      131072,
		SpareRowsPerBank: 1024,
		ColumnsPerRow:    128,
		LineBytes:        64,

		TREFW: 64 * clock.Millisecond,
		TREFI: 7812500 * clock.Picosecond, // 64 ms / 8192 rowsets (the paper's "7.8 µs")
		TRFC:  350 * clock.Nanosecond,
		TRC:   45 * clock.Nanosecond,
		TRRD:  3332 * clock.Picosecond, // tRRD_S: 4 clocks at 1.2 GHz
		TRRDL: 4900 * clock.Picosecond, // tRRD_L: 6 clocks
		TFAW:  25 * clock.Nanosecond,
		TRCD:  13 * clock.Nanosecond,
		TRP:   13 * clock.Nanosecond,
		TRAS:  32 * clock.Nanosecond,
		TCL:   14 * clock.Nanosecond,
		TWR:   15 * clock.Nanosecond,
		TCCD:  3332 * clock.Picosecond, // tCCD_S: 4 clocks
		TCCDL: 5 * clock.Nanosecond,    // tCCD_L: 6 clocks
		TBL:   3332 * clock.Picosecond, // 4 clocks at 1.2 GHz (BL8, DDR)

		NTh:         139000,
		BlastRadius: 1,
		SCFRate:     1e-5,
	}
}

// Validate reports whether the parameter set is internally consistent.
func (p Params) Validate() error {
	switch {
	case p.Channels <= 0 || p.RanksPerChannel <= 0 || p.BanksPerRank <= 0:
		return errors.New("dram: channel/rank/bank counts must be positive")
	case p.RowsPerBank <= 0 || p.ColumnsPerRow <= 0 || p.LineBytes <= 0:
		return errors.New("dram: row/column geometry must be positive")
	case p.SpareRowsPerBank < 0:
		return errors.New("dram: spare row count must be non-negative")
	case p.TREFW <= 0 || p.TREFI <= 0 || p.TRFC <= 0 || p.TRC <= 0:
		return errors.New("dram: refresh and cycle timings must be positive")
	case p.TREFI-p.TRFC < p.TRC:
		// maxact ≥ 1 (MaxACTsPerRefreshInterval): a bank can activate
		// between refreshes, or the controller would only refresh.
		return fmt.Errorf("dram: tREFI − tRFC (%v) must be at least tRC (%v)", p.TREFI-p.TRFC, p.TRC)
	case p.TREFW < p.TREFI:
		return fmt.Errorf("dram: tREFW (%v) must be at least tREFI (%v)", p.TREFW, p.TREFI)
	case p.TRAS+p.TRP > p.TRC:
		return fmt.Errorf("dram: tRAS+tRP (%v) must not exceed tRC (%v)", p.TRAS+p.TRP, p.TRC)
	case p.NTh <= 0:
		return errors.New("dram: row-hammer threshold Nth must be positive")
	case p.BlastRadius <= 0:
		return errors.New("dram: blast radius must be positive")
	case !(0 <= p.SCFRate && p.SCFRate <= 1): // NaN fails too
		return errors.New("dram: SCF rate must lie in [0,1]")
	case p.BankGroups > 1 && p.BanksPerRank%p.BankGroups != 0:
		return fmt.Errorf("dram: bank groups (%d) must divide banks per rank (%d)", p.BankGroups, p.BanksPerRank)
	}
	// The timing checker adds these spacings to its −∞ "no previous
	// command" sentinel; a negative one overflows it to clock.Never, and no
	// command would ever be legal. Zero is legal (a zero tRRD_L or tCCD_L
	// means "use the short value").
	for _, t := range [...]struct {
		name string
		v    clock.Time
	}{
		{"tRRD", p.TRRD}, {"tRRD_L", p.TRRDL}, {"tCCD", p.TCCD}, {"tCCD_L", p.TCCDL},
		{"tFAW", p.TFAW}, {"tRCD", p.TRCD}, {"tRP", p.TRP}, {"tRAS", p.TRAS},
		{"tCL", p.TCL}, {"tWR", p.TWR}, {"tBL", p.TBL},
	} {
		if t.v < 0 {
			return fmt.Errorf("dram: %s (%v) must not be negative", t.name, t.v)
		}
	}
	return nil
}

// BankGroup returns the bank-group index of a bank, or 0 when grouping is
// disabled. The timing checker calls it once per bank position at
// construction and keeps the answers.
func (p *Params) BankGroup(bank int) int {
	if p.BankGroups <= 1 {
		return 0
	}
	return bank / (p.BanksPerRank / p.BankGroups)
}

// RRDWithin returns the ACT-to-ACT spacing for two ACTs in the same bank
// group (tRRD_L, falling back to tRRD_S when unset). Pointer receiver: the
// timing checker calls it per candidate command, and a by-value receiver
// copies the whole struct.
func (p *Params) RRDWithin() clock.Time {
	if p.TRRDL > 0 {
		return p.TRRDL
	}
	return p.TRRD
}

// CCDWithin returns the column-to-column spacing within a bank group
// (tCCD_L, falling back to tCCD_S when unset). Pointer receiver for the
// same hot-path reason as RRDWithin.
func (p *Params) CCDWithin() clock.Time {
	if p.TCCDL > 0 {
		return p.TCCDL
	}
	return p.TCCD
}

// RefreshTicksPerWindow returns how many auto-refresh commands fall in one
// refresh window: tREFW / tREFI (8192 for the default parameters).
func (p Params) RefreshTicksPerWindow() int {
	return int(p.TREFW / p.TREFI)
}

// RowsPerRefresh returns how many rows each auto-refresh command refreshes so
// that every row (including spares) is covered at least once per refresh
// window. It is rounded up, so a window may refresh more rows than the bank
// has and the rolling sweep then runs ahead of the window: at the default
// parameters 17 rows × 8,192 ticks cover 139,264 rows against 132,096, so
// each row is refreshed every ~7,770 ticks (~60.7 ms of the 64 ms window).
func (p Params) RowsPerRefresh() int {
	total := p.RowsPerBank + p.SpareRowsPerBank
	ticks := p.RefreshTicksPerWindow()
	return (total + ticks - 1) / ticks
}

// MaxACTsPerRefreshInterval returns maxact from Table 2: the maximum number
// of ACTs a bank can receive during one tREFI, (tREFI − tRFC) / tRC
// (165 for the default parameters).
func (p Params) MaxACTsPerRefreshInterval() int {
	return int((p.TREFI - p.TRFC) / p.TRC)
}

// TotalBanks returns the number of banks across all channels and ranks.
func (p Params) TotalBanks() int {
	return p.Channels * p.RanksPerChannel * p.BanksPerRank
}

// BankCapacityBytes returns the data capacity of one bank.
func (p Params) BankCapacityBytes() int64 {
	return int64(p.RowsPerBank) * int64(p.ColumnsPerRow) * int64(p.LineBytes)
}

// RowBytes returns the size of one DRAM row (the "DRAM page").
func (p Params) RowBytes() int { return p.ColumnsPerRow * p.LineBytes }

// TotalCapacityBytes returns the data capacity of the whole configuration.
func (p Params) TotalCapacityBytes() int64 {
	return p.BankCapacityBytes() * int64(p.TotalBanks())
}
