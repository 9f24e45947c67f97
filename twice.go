// Package twice is the public API of the TWiCe reproduction: a library for
// building simulated DRAM systems, attaching row-hammer defenses (TWiCe and
// the baselines it is evaluated against), running workloads — including the
// paper's adversarial patterns — and reading the resulting activation,
// detection, energy, and reliability reports.
//
// The primary contribution (the TWiCe engine) lives in internal/core; this
// package re-exports the stable surface:
//
//	cfg := twice.DefaultConfig(16)            // the paper's Table 4 machine
//	def, _ := twice.NewTWiCe(cfg.DRAM)        // thRH = 32768, pa-TWiCe
//	w, _ := twice.WorkloadS3(cfg, 5000)       // hammer row 5000
//	res, _ := twice.Run(cfg, def, w, twice.Requests(1_000_000))
//	fmt.Println(res.Counters.AdditionalACTRatio(), res.Counters.Detections)
package twice

import (
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/defense/cbt"
	"repro/internal/defense/cra"
	"repro/internal/defense/graphene"
	"repro/internal/defense/para"
	"repro/internal/defense/prohit"
	"repro/internal/defense/trr"
	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/mc"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Core simulation types.
type (
	// Config describes the simulated machine (DRAM, controller, caches,
	// cores).
	Config = sim.Config
	// Limits bounds a run by request count and/or simulated time.
	Limits = sim.Limits
	// Result is one run's full report.
	Result = sim.Result
	// Workload is a named set of per-core access generators.
	Workload = workload.Workload
	// Defense is a row-hammer mitigation mechanism.
	Defense = defense.Defense
	// DRAMParams is the DRAM organization/timing/reliability description.
	DRAMParams = dram.Params
	// Time is the simulation time base (picoseconds).
	Time = clock.Time
	// TWiCe is the paper's defense engine.
	TWiCe = core.TWiCe
	// TWiCeConfig parameterises a TWiCe engine.
	TWiCeConfig = core.Config
	// Derived collects the Table 2 parameter derivations.
	Derived = analysis.Derived
	// EnergyModel holds the Table 3 timing/energy constants.
	EnergyModel = energy.Model
	// Area is the §6.2/§7.1 storage model.
	Area = energy.Area
)

// TWiCe table organizations.
const (
	OrgFA        = core.FA
	OrgPA        = core.PA
	OrgSeparated = core.Separated
)

// DDR4 returns the paper's DDR4-2400 DRAM parameters (Table 2).
func DDR4() DRAMParams { return dram.DDR4_2400() }

// DefaultConfig returns the paper's Table 4 machine for the given core
// count.
func DefaultConfig(cores int) Config { return sim.DefaultConfig(cores) }

// Requests bounds a run to n completed demand memory requests.
func Requests(n int64) Limits { return sim.DefaultLimits(n) }

// ScaleWindow returns cfg with a shortened refresh window and row-hammer
// threshold, rebuilding the derived controller configuration. Shrinking
// tREFW and Nth by the same factor preserves every ratio the experiments
// report while making runs proportionally faster; pair it with a TWiCeConfig
// whose ThRH is scaled identically.
func ScaleWindow(cfg Config, tREFW Time, nTh int) Config {
	cfg.DRAM.TREFW = tREFW
	cfg.DRAM.NTh = nTh
	cfg.MC = mc.NewConfig(cfg.DRAM)
	return cfg
}

// Run assembles the machine and executes the workload under the defense.
func Run(cfg Config, def Defense, w Workload, lim Limits) (*Result, error) {
	return sim.Run(cfg, def, w, lim)
}

// NewTWiCe builds the paper's default TWiCe engine for the DRAM parameters:
// thRH 32768, pseudo-associative 64-way tables, pruning every tREFI.
func NewTWiCe(p DRAMParams) (*TWiCe, error) {
	return core.New(core.NewConfig(p))
}

// NewTWiCeWith builds a TWiCe engine from an explicit configuration.
func NewTWiCeWith(cfg TWiCeConfig) (*TWiCe, error) { return core.New(cfg) }

// NewTWiCeConfig returns the default TWiCe configuration for the DRAM
// parameters, ready for adjustment (threshold, organization, PI).
func NewTWiCeConfig(p DRAMParams) TWiCeConfig { return core.NewConfig(p) }

// NewPARA builds the probabilistic baseline with refresh probability prob
// (the paper evaluates 0.001 and 0.002).
func NewPARA(prob float64, p DRAMParams, seed int64) (Defense, error) {
	return para.New(prob, p, seed)
}

// NewCBT builds the counter-tree baseline (CBT-256, threshold 32K).
func NewCBT(p DRAMParams) (Defense, error) { return cbt.New(cbt.NewConfig(p)) }

// NewCBTThreshold builds CBT-256 with an explicit top threshold (use this
// when scaling the refresh window: the threshold scales with it).
func NewCBTThreshold(p DRAMParams, threshold int) (Defense, error) {
	cfg := cbt.NewConfig(p)
	cfg.Threshold = threshold
	return cbt.New(cfg)
}

// NewCRA builds the counter-cache baseline.
func NewCRA(p DRAMParams) (Defense, error) { return cra.New(cra.NewConfig(p)) }

// NewPRoHIT builds the history-assisted probabilistic baseline.
func NewPRoHIT(p DRAMParams, seed int64) (Defense, error) {
	return prohit.New(prohit.NewConfig(p), seed)
}

// NewGraphene builds the Misra-Gries-based successor defense (Park et al.,
// MICRO 2020) at the given detection threshold — the follow-on work TWiCe
// inspired, included for forward comparisons.
func NewGraphene(p DRAMParams, threshold int) (Defense, error) {
	return graphene.New(graphene.NewConfig(p, threshold))
}

// NewTRR builds the in-DRAM Target Row Refresh model (§8): a small
// activation sampler with MAC-triggered neighbour refresh. Included to
// contrast with TWiCe: its tracker is evictable and loses many-sided
// attacks, which TWiCe's provably sized table cannot.
func NewTRR(p DRAMParams) (Defense, error) { return trr.New(trr.NewConfig(p)) }

// NoDefense returns the undefended baseline.
func NoDefense() Defense { return defense.Nop{} }

// WorkloadS1 returns the paper's S1 synthetic: uniform random accesses.
func WorkloadS1(cfg Config, seed int64) (Workload, error) {
	return synthetic(cfg, func(m *mc.AddrMap) Workload { return workload.S1(m, cfg.DRAM, seed) })
}

// WorkloadS2 returns the paper's S2 synthetic: the CBT-adversarial pattern,
// tuned against a counter tree with the given top threshold.
func WorkloadS2(cfg Config, cbtThreshold int) (Workload, error) {
	return synthetic(cfg, func(m *mc.AddrMap) Workload { return workload.S2(m, cfg.DRAM, cbtThreshold) })
}

// WorkloadS3 returns the paper's S3 synthetic: a single-row hammer on the
// given row of bank 0.
func WorkloadS3(cfg Config, row int) (Workload, error) {
	return hammer(cfg, "S3", row, 0, 0, func(m *mc.AddrMap) Workload { return workload.S3(m, cfg.DRAM, row) })
}

// WorkloadDoubleSided returns a double-sided hammer around victim row (an
// extension beyond the paper's S3).
func WorkloadDoubleSided(cfg Config, victim int) (Workload, error) {
	return hammer(cfg, "double-sided", victim, 1, 1, func(m *mc.AddrMap) Workload { return workload.DoubleSided(m, victim) })
}

// WorkloadManySided returns an n-sided hammer (the TRRespass pattern): n
// aggressor rows spaced two apart from base, rotating every access.
func WorkloadManySided(cfg Config, base, n int) (Workload, error) {
	if most := (cfg.DRAM.RowsPerBank + 1) / 2; n < 1 || n > most {
		return Workload{}, fmt.Errorf("twice: a many-sided hammer needs 1 to %d aggressors, got %d", most, n)
	}
	return hammer(cfg, "many-sided", base, 0, 2*(n-1), func(m *mc.AddrMap) Workload { return workload.ManySided(m, base, n) })
}

// hammer builds an attack on row after checking that its aggressors, below
// rows under row and above rows over it, lie in the bank.
func hammer(cfg Config, name string, row, below, above int, build func(*mc.AddrMap) Workload) (Workload, error) {
	if err := workload.CheckRow(row, below, above, cfg.DRAM.RowsPerBank); err != nil {
		return Workload{}, fmt.Errorf("twice: %s: %w", name, err)
	}
	return synthetic(cfg, build)
}

// synthetic builds a workload over cfg's address map, or returns the map's
// error for a geometry it cannot address (which Config.Validate rejects).
func synthetic(cfg Config, build func(*mc.AddrMap) Workload) (Workload, error) {
	m, err := mc.NewAddrMap(cfg.DRAM)
	if err != nil {
		return Workload{}, err
	}
	return build(m), nil
}

// WorkloadSPECRate returns n copies of a SPEC CPU2006-like application.
func WorkloadSPECRate(app string, cores int, cfg Config, seed int64) (Workload, error) {
	return workload.SPECRate(app, cores, uint64(cfg.DRAM.TotalCapacityBytes()), seed)
}

// WorkloadMixHigh returns the paper's memory-intensive SPEC mix.
func WorkloadMixHigh(cores int, cfg Config, seed int64) (Workload, error) {
	return workload.MixHigh(cores, uint64(cfg.DRAM.TotalCapacityBytes()), seed)
}

// WorkloadMICA returns the multi-threaded key-value-store workload.
func WorkloadMICA(cores int, cfg Config, seed int64) Workload {
	return workload.MICA(cores, uint64(cfg.DRAM.TotalCapacityBytes()), seed)
}

// WorkloadFromTrace replays a recorded access trace (see cmd/tracegen) as a
// single-core workload. bypassCache replays attacker traces straight into
// the memory controller.
func WorkloadFromTrace(name string, r io.Reader, bypassCache bool) (Workload, error) {
	rep, err := trace.NewReplayer(name, r)
	if err != nil {
		return Workload{}, err
	}
	return Workload{Name: name, Gens: []workload.Generator{rep}, BypassCache: bypassCache}, nil
}

// RecordTrace captures n accesses from a workload's first generator into w
// in the repository trace format.
func RecordTrace(w io.Writer, wl Workload, n int) error {
	if err := wl.Validate(); err != nil {
		return err
	}
	return trace.Record(w, wl.Gens[0], n)
}

// Derive computes the Table 2 parameter derivations for a TWiCe config.
func Derive(cfg TWiCeConfig) Derived { return analysis.Derive(cfg) }

// Table3Energy returns the paper's Table 3 cost constants.
func Table3Energy() EnergyModel { return energy.Table3() }

// AreaModel computes the TWiCe table storage footprint.
func AreaModel(cfg TWiCeConfig) Area { return energy.AreaModel(cfg) }
