// Package prohit implements PRoHIT (Son et al., DAC 2017), the
// history-assisted extension of PARA the TWiCe paper discusses in §3.3:
// a small probabilistic history table remembers recently hammered rows, and
// rows present in the table have their neighbours refreshed with a much
// higher probability than PARA's uniform coin flip. The scheme remains
// probabilistic — no deterministic guarantee and no attack detection.
package prohit

import (
	"fmt"
	"math/rand"

	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/dram"
)

// Config parameterises a PRoHIT instance.
type Config struct {
	// TableSize is the per-bank history-table capacity.
	TableSize int
	// InsertProb is the probability an activation inserts its row into the
	// history table (PRoHIT's low-cost sampling of the ACT stream).
	InsertProb float64
	// RefreshProb is the probability an activation of a *tracked* row
	// triggers a neighbour refresh (much higher than PARA's p).
	RefreshProb float64
	// DRAM supplies geometry.
	DRAM dram.Params
}

// NewConfig returns a representative configuration: 16-entry tables,
// 1/1000 insert sampling, 1/64 refresh probability for tracked rows.
func NewConfig(p dram.Params) Config {
	return Config{TableSize: 16, InsertProb: 0.001, RefreshProb: 1.0 / 64, DRAM: p}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.TableSize < 1:
		return fmt.Errorf("prohit: table size must be positive, got %d", c.TableSize)
	case !(0 < c.InsertProb && c.InsertProb < 1): // NaN fails too
		return fmt.Errorf("prohit: insert probability %v outside (0,1)", c.InsertProb)
	case !(0 < c.RefreshProb && c.RefreshProb <= 1):
		return fmt.Errorf("prohit: refresh probability %v outside (0,1]", c.RefreshProb)
	}
	return c.DRAM.Validate()
}

// entry is one history-table slot with an LRU-style priority.
type entry struct {
	row  int
	prio int64
}

// PRoHIT implements defense.Defense.
type PRoHIT struct {
	cfg    Config //twicelint:keep configuration, fixed at construction
	tables [][]entry
	rng    *rand.Rand //twicelint:keep stream continuity is deliberate; grids build a fresh PRoHIT per cell
	tick   int64      //twicelint:keep lifetime tick clock; tables reference it only relatively
}

var _ defense.Defense = (*PRoHIT)(nil)

// New builds a PRoHIT engine.
func New(cfg Config, seed int64) (*PRoHIT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &PRoHIT{
		cfg:    cfg,
		tables: make([][]entry, cfg.DRAM.TotalBanks()),
		rng:    rand.New(rand.NewSource(seed)),
	}
	return p, nil
}

// Name implements defense.Defense.
func (p *PRoHIT) Name() string { return "PRoHIT" }

// OnActivate implements defense.Defense.
func (p *PRoHIT) OnActivate(bank dram.BankID, row int, _ clock.Time) defense.Action {
	p.tick++
	i := bank.Flat(&p.cfg.DRAM)
	tbl := p.tables[i]

	// Tracked rows refresh their neighbours with the boosted probability.
	for j := range tbl {
		if tbl[j].row != row {
			continue
		}
		tbl[j].prio = p.tick
		if p.rng.Float64() < p.cfg.RefreshProb {
			return defense.Action{LogicalVictims: p.neighbours(row)}
		}
		return defense.Action{}
	}

	// Untracked rows: sampled insertion, evicting the stalest entry.
	if p.rng.Float64() < p.cfg.InsertProb {
		e := entry{row: row, prio: p.tick}
		if len(tbl) < p.cfg.TableSize {
			p.tables[i] = append(tbl, e)
		} else {
			oldest := 0
			for j := range tbl {
				if tbl[j].prio < tbl[oldest].prio {
					oldest = j
				}
			}
			tbl[oldest] = e
		}
	}
	// Keep PARA-level background protection for untracked rows.
	if p.rng.Float64() < p.cfg.InsertProb {
		return defense.Action{LogicalVictims: p.neighbours(row)[:1]}
	}
	return defense.Action{}
}

func (p *PRoHIT) neighbours(row int) []int {
	out := make([]int, 0, 2*p.cfg.DRAM.BlastRadius)
	for d := -p.cfg.DRAM.BlastRadius; d <= p.cfg.DRAM.BlastRadius; d++ {
		v := row + d
		if d != 0 && v >= 0 && v < p.cfg.DRAM.RowsPerBank {
			out = append(out, v)
		}
	}
	return out
}

// OnRefreshTick implements defense.Defense.
func (p *PRoHIT) OnRefreshTick(dram.BankID, clock.Time) {}

// Reset implements defense.Defense.
func (p *PRoHIT) Reset() {
	for i := range p.tables {
		p.tables[i] = nil
	}
}
