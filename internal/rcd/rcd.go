// Package rcd models the registered-DIMM register clock driver that hosts
// the TWiCe table in the paper's architecture (§5): it observes the repeated
// command/address stream, runs the row-hammer defense, and holds at most one
// pending adjacent-row-refresh per bank. Baseline defenses (which the
// original papers place in the MC) run through the same observation point;
// only the ARR path is RCD-specific.
package rcd

import (
	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/dram"
	"repro/internal/probe"
)

// Stats counts RCD-level events. The controller counts each of them in
// stats.Counters as it happens; sim.Result reports them in this shape.
type Stats struct {
	ARRsIssued int64 // adjacent-row-refresh commands forwarded to the device
	Nacks      int64 // controller commands nacked during ARR windows
	Detections int64 // defense detections observed
}

// RCD wires a defense into the command stream.
type RCD struct {
	p dram.Params //twicelint:keep DIMM parameters, fixed at construction
	// def survives Reset: each grid cell installs its own freshly built
	// defense via SetDefense, and the defense may have reuse semantics of
	// its own (TWiCe's in-place table Clear).
	//twicelint:keep caller-owned; swapped via SetDefense, reset by the caller
	def defense.Defense
	// pendingARR[flatBank] holds aggressor rows awaiting ARR. The paper's
	// protocol converts the aggressor's PRE into an ARR; detection happens
	// on the ACT, so there is at most one pending aggressor per bank, but a
	// slice keeps the model robust to defenses that flag several.
	pendingARR [][]int
	// probes, when non-nil, receives ARR-queued telemetry events.
	//twicelint:keep attachment is machine-owned; Reset must not detach it
	probes *probe.Recorder
}

// New builds an RCD hosting the given defense.
func New(p dram.Params, def defense.Defense) *RCD {
	return &RCD{
		p:          p,
		def:        def,
		pendingARR: make([][]int, p.TotalBanks()),
	}
}

// SetDefense swaps the hosted defense (machine-reuse path: each experiment
// grid cell brings its own freshly built defense to the recycled RCD).
func (r *RCD) SetDefense(def defense.Defense) { r.def = def }

// SetProbes attaches (nil detaches) a telemetry recorder. Reset leaves the
// attachment alone — the machine owns it.
func (r *RCD) SetProbes(p *probe.Recorder) { r.probes = p }

// Reset returns the RCD to its just-constructed state, reusing the pending
// queues' backing storage. The hosted defense is reset by the caller (it may
// have reuse semantics of its own, e.g. TWiCe's in-place table Clear).
func (r *RCD) Reset() {
	for i := range r.pendingARR {
		r.pendingARR[i] = r.pendingARR[i][:0]
	}
}

// ObserveACT reports one activation to the defense and files any requested
// ARRs as pending work for the bank. The remaining mitigation work (victim
// refreshes the controller performs itself, extra counter traffic) is
// returned for the controller to execute.
//
//twicelint:hotpath defense observation point on every ACT
func (r *RCD) ObserveACT(bank dram.BankID, row int, now clock.Time) defense.Action {
	a := r.def.OnActivate(bank, row, now)
	if len(a.ARRAggressors) > 0 {
		i := bank.Flat(&r.p)
		//twicelint:allocok ARR filing is rare (per detection, not per ACT); storage reused via [:0]
		r.pendingARR[i] = append(r.pendingARR[i], a.ARRAggressors...)
		a.ARRAggressors = nil
		if r.probes != nil {
			r.probes.ARRQueued(i, len(r.pendingARR[i]), now)
		}
	}
	return a
}

// ObserveRefresh reports one auto-refresh tick on every bank of the rank
// (TWiCe prunes its tables in the shadow of the refresh).
func (r *RCD) ObserveRefresh(rank dram.RankID, now clock.Time) {
	for ba := 0; ba < r.p.BanksPerRank; ba++ {
		r.def.OnRefreshTick(dram.BankID{Channel: rank.Channel, Rank: rank.Rank, Bank: ba}, now)
	}
}

// HasPendingARR reports whether the bank owes an adjacent-row refresh.
func (r *RCD) HasPendingARR(bank dram.BankID) bool {
	return len(r.pendingARR[bank.Flat(&r.p)]) > 0
}

// TakeARR pops the next pending aggressor row for the bank; the controller
// calls this at the aggressor's precharge point, where the RCD substitutes
// the ARR command. ok is false when nothing is pending.
func (r *RCD) TakeARR(bank dram.BankID) (row int, ok bool) {
	i := bank.Flat(&r.p)
	q := r.pendingARR[i]
	if len(q) == 0 {
		return 0, false
	}
	row = q[0]
	r.pendingARR[i] = q[1:]
	return row, true
}
