// Package para implements PARA (Probabilistic Adjacent Row Activation,
// Kim et al. ISCA 2014): on every row activation, with probability p one of
// the row's neighbours is refreshed. PARA is stateless, cannot detect
// attacks, and its additional-ACT overhead equals p on every workload —
// the baseline behaviour Figure 7 of the TWiCe paper reports.
package para

import (
	"fmt"
	"math/rand"

	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/dram"
)

// PARA is a probabilistic row-hammer mitigation. It draws from one RNG stream
// per flat bank, so each bank's random sequence depends only on that bank's
// own ACT stream, never on how activations interleave across banks.
type PARA struct {
	name        string       //twicelint:keep display name, fixed at construction
	p           float64      //twicelint:keep refresh probability, fixed at construction
	rowsPerBank int          //twicelint:keep geometry, fixed at construction
	radius      int          //twicelint:keep blast radius, fixed at construction
	params      dram.Params  //twicelint:keep geometry, fixed at construction
	rngs        []*rand.Rand //twicelint:keep per-bank stream continuity is deliberate; grids build a fresh PARA per cell
	refreshes   int64        //twicelint:keep lifetime aggregate; PARA is stateless per-epoch
}

var _ defense.Defense = (*PARA)(nil)

// New builds a PARA instance with refresh probability p. The paper's
// configurations are p = 0.001 and p = 0.002. The seed makes runs
// reproducible; real deployments need a true RNG (§3.4), which is outside a
// simulator's scope.
func New(p float64, dp dram.Params, seed int64) (*PARA, error) {
	if !(0 < p && p < 1) { // NaN fails too
		return nil, fmt.Errorf("para: probability %v outside (0,1)", p)
	}
	pa := &PARA{
		name:        fmt.Sprintf("PARA-%g", p),
		p:           p,
		rowsPerBank: dp.RowsPerBank,
		radius:      dp.BlastRadius,
		params:      dp,
		rngs:        make([]*rand.Rand, dp.TotalBanks()),
	}
	// One deterministic stream per bank (golden-ratio stride decorrelates
	// neighbouring banks).
	for i := range pa.rngs {
		pa.rngs[i] = rand.New(rand.NewSource(seed + int64(i+1)*0x9E3779B9))
	}
	return pa, nil
}

// Name implements defense.Defense.
func (pa *PARA) Name() string { return pa.name }

// OnActivate implements defense.Defense: with probability p, refresh one
// randomly chosen neighbour within the blast radius.
func (pa *PARA) OnActivate(bank dram.BankID, row int, _ clock.Time) defense.Action {
	rng := pa.rngs[bank.Flat(&pa.params)]
	if rng.Float64() >= pa.p {
		return defense.Action{}
	}
	// Choose a side and distance uniformly among the 2·radius neighbours.
	d := rng.Intn(2*pa.radius) - pa.radius
	if d >= 0 {
		d++
	}
	victim := row + d
	if victim < 0 || victim >= pa.rowsPerBank {
		victim = row - d // fall back to the in-range side
		if victim < 0 || victim >= pa.rowsPerBank {
			return defense.Action{}
		}
	}
	pa.refreshes++
	return defense.Action{LogicalVictims: []int{victim}}
}

// OnRefreshTick implements defense.Defense (PARA is stateless).
func (pa *PARA) OnRefreshTick(dram.BankID, clock.Time) {}

// Reset implements defense.Defense (PARA is stateless).
func (pa *PARA) Reset() {}
