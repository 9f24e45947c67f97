// Package defense defines the contract between the memory system and a
// row-hammer mitigation mechanism, shared by TWiCe (internal/core) and the
// baseline schemes (PARA, CBT, CRA, PRoHIT).
//
// The memory system reports every row activation and every auto-refresh tick
// to the defense; the defense replies with the mitigation work the memory
// system must perform. Two kinds of work exist, mirroring the paper's
// architecture discussion:
//
//   - ARRAggressors: rows whose *physical* neighbours must be refreshed via
//     the in-device ARR command (resolves row remapping correctly; occupies
//     the bank for 2·tRC+tRP and nacks the rank). TWiCe uses this path.
//   - LogicalVictims: logical row indices the controller refreshes itself
//     (one ACT/PRE pair each). This is the remapping-oblivious path the
//     pre-TWiCe schemes assume; PARA and CBT use it.
//   - ExtraAccesses: additional DRAM accesses the scheme itself generates
//     (CRA's counter-cache fill and writeback traffic).
package defense

import (
	"repro/internal/clock"
	"repro/internal/dram"
)

// Action is the mitigation work a defense requests in response to one ACT.
// The zero value means "nothing to do".
type Action struct {
	// ARRAggressors lists aggressor rows for which the device must perform
	// an adjacent row refresh.
	ARRAggressors []int
	// LogicalVictims lists logical rows the memory controller must refresh
	// directly (one activation each).
	LogicalVictims []int
	// ExtraAccesses counts additional DRAM row activations caused by the
	// defense's own state traffic (e.g. CRA counter fetches).
	ExtraAccesses int
	// Detected reports that the defense explicitly identified a row-hammer
	// attack (possible for counter-based schemes, impossible for PARA).
	Detected bool
}

// Empty reports whether the action requests no work.
//
//twicelint:keep called by internal/core and internal/defense/ideal tests
func (a Action) Empty() bool {
	return len(a.ARRAggressors) == 0 && len(a.LogicalVictims) == 0 && !a.Detected && a.ExtraAccesses == 0
}

// Defense is a row-hammer mitigation mechanism. Implementations are
// single-threaded: the simulator invokes them from its one event loop.
type Defense interface {
	// Name identifies the scheme in reports, e.g. "TWiCe" or "PARA-0.001".
	Name() string
	// OnActivate observes an ACT to (bank, row) at the given time and
	// returns the mitigation work to perform.
	OnActivate(bank dram.BankID, row int, now clock.Time) Action
	// OnRefreshTick observes one auto-refresh command on the bank's rank at
	// the given time (the tREFI cadence; TWiCe prunes its table here).
	OnRefreshTick(bank dram.BankID, now clock.Time)
	// Reset clears all state, leaving the defense as freshly built. No
	// simulator path calls it: every grid cell builds a fresh defense, and
	// CBT's per-tREFW tree reset happens inside OnRefreshTick.
	Reset()
}

// Nop is the "no defense" baseline: it never requests mitigation work.
// Running a hammer workload against Nop demonstrates the bit flips every
// other scheme prevents.
type Nop struct{}

// Name implements Defense.
func (Nop) Name() string { return "none" }

// OnActivate implements Defense.
func (Nop) OnActivate(dram.BankID, int, clock.Time) Action { return Action{} }

// OnRefreshTick implements Defense.
func (Nop) OnRefreshTick(dram.BankID, clock.Time) {}

// Reset implements Defense.
func (Nop) Reset() {}

var _ Defense = Nop{}
