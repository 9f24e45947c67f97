// Package ideal implements the naïve counter-per-row scheme the paper's §3.3
// uses as the strawman: a full activation counter for every DRAM row, reset
// as the rolling auto-refresh sweeps past, with a neighbour refresh at the
// detection threshold. Its protection is exact — and so is its cost: one
// counter per row (131,072 per bank) versus TWiCe's 556. The reproduction
// uses it as the detection-quality oracle: TWiCe must flag exactly the
// aggressors ideal flags, with two orders of magnitude less state.
package ideal

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/dram"
)

// Config parameterises the ideal counter scheme.
type Config struct {
	// Threshold is the per-row detection threshold (TWiCe's thRH for
	// apples-to-apples comparisons).
	Threshold int
	// DRAM supplies geometry and refresh pacing.
	DRAM dram.Params
}

// NewConfig returns the scheme at the paper's thRH.
//
//twicelint:keep called by internal/sim tests
func NewConfig(p dram.Params) Config {
	return Config{Threshold: 32768, DRAM: p}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Threshold < 2 {
		return fmt.Errorf("ideal: threshold too small: %d", c.Threshold)
	}
	return c.DRAM.Validate()
}

// bankState holds one bank's counters and its rolling refresh pointer.
type bankState struct {
	counts     []int32
	refreshPtr int
}

// Ideal implements defense.Defense.
type Ideal struct {
	cfg        Config //twicelint:keep configuration, fixed at construction
	banks      []bankState
	perTick    int   //twicelint:keep derived decay quantum, fixed at construction
	detections int64 //twicelint:keep lifetime aggregate; Reset clears counter tables only
}

var _ defense.Defense = (*Ideal)(nil)

// New builds the scheme.
//
//twicelint:keep called by internal/sim tests
func New(cfg Config) (*Ideal, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Ideal{
		cfg:     cfg,
		banks:   make([]bankState, cfg.DRAM.TotalBanks()),
		perTick: cfg.DRAM.RowsPerRefresh(),
	}
	for i := range d.banks {
		d.banks[i].counts = make([]int32, cfg.DRAM.RowsPerBank)
	}
	return d, nil
}

// Name implements defense.Defense.
func (d *Ideal) Name() string { return "ideal-counters" }

// OnActivate implements defense.Defense.
func (d *Ideal) OnActivate(bank dram.BankID, row int, _ clock.Time) defense.Action {
	b := &d.banks[bank.Flat(&d.cfg.DRAM)]
	if row < 0 || row >= len(b.counts) {
		return defense.Action{}
	}
	b.counts[row]++
	if int(b.counts[row]) >= d.cfg.Threshold {
		b.counts[row] = 0
		d.detections++
		return defense.Action{ARRAggressors: []int{row}, Detected: true}
	}
	return defense.Action{}
}

// OnRefreshTick implements defense.Defense: the rolling refresh restores the
// swept rows' neighbours-accumulated charge, so their aggressor counters can
// restart — mirroring the reliability epoch of the device model.
func (d *Ideal) OnRefreshTick(bank dram.BankID, _ clock.Time) {
	b := &d.banks[bank.Flat(&d.cfg.DRAM)]
	for i := 0; i < d.perTick; i++ {
		if b.refreshPtr < len(b.counts) {
			b.counts[b.refreshPtr] = 0
		}
		b.refreshPtr++
		if b.refreshPtr >= d.cfg.DRAM.RowsPerBank+d.cfg.DRAM.SpareRowsPerBank {
			b.refreshPtr = 0
		}
	}
}

// Reset implements defense.Defense.
func (d *Ideal) Reset() {
	for i := range d.banks {
		for j := range d.banks[i].counts {
			d.banks[i].counts[j] = 0
		}
		d.banks[i].refreshPtr = 0
	}
}
