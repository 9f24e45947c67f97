package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/defense/cbt"
	"repro/internal/defense/cra"
	"repro/internal/defense/graphene"
	"repro/internal/defense/para"
	"repro/internal/defense/prohit"
	"repro/internal/dram"
	"repro/internal/mc"
	"repro/internal/workload"
)

// The name catalogue: the only place a scale, workload or defense name
// becomes an object. The grids, the commands and the benchmarks resolve
// names here, so adding a defense or a workload is one table row.

// AttackRow is the row the grids and tracegen hammer with S3 and the victim
// double-sided surrounds; twicesim's -row defaults to it.
const AttackRow = 5000

// ScaleByName resolves a -scale flag value.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return QuickScale(), nil
	case "paper":
		return PaperScale(), nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (want quick or paper)", name)
}

// defenses is the defense catalogue, in -list order.
var defenses = []struct {
	name  string
	build func(s Scale, p dram.Params) (defense.Defense, error)
}{
	{"none", func(Scale, dram.Params) (defense.Defense, error) { return defense.Nop{}, nil }},
	{"TWiCe", func(s Scale, p dram.Params) (defense.Defense, error) { return core.New(s.twiceConfig(p, core.PA)) }},
	{"TWiCe-fa", func(s Scale, p dram.Params) (defense.Defense, error) { return core.New(s.twiceConfig(p, core.FA)) }},
	{"TWiCe-sep", func(s Scale, p dram.Params) (defense.Defense, error) {
		return core.New(s.twiceConfig(p, core.Separated))
	}},
	{"PARA-0.001", func(s Scale, p dram.Params) (defense.Defense, error) { return para.New(0.001, p, s.Seed+11) }},
	{"PARA-0.002", func(s Scale, p dram.Params) (defense.Defense, error) { return para.New(0.002, p, s.Seed+13) }},
	{"CBT-256", func(s Scale, p dram.Params) (defense.Defense, error) {
		cfg := cbt.NewConfig(p)
		cfg.Threshold = s.CBTThreshold
		return cbt.New(cfg)
	}},
	{"CRA", func(s Scale, p dram.Params) (defense.Defense, error) {
		cfg := cra.NewConfig(p)
		cfg.Threshold = s.ThRH
		return cra.New(cfg)
	}},
	{"PRoHIT", func(s Scale, p dram.Params) (defense.Defense, error) {
		return prohit.New(prohit.NewConfig(p), s.Seed+17)
	}},
	{"Graphene", func(s Scale, p dram.Params) (defense.Defense, error) {
		return graphene.New(graphene.NewConfig(p, s.ThRH))
	}},
}

// twiceConfig is TWiCe at the scale's detection threshold with the given
// table organization (PA is the paper's default).
func (s Scale) twiceConfig(p dram.Params, org core.Org) core.Config {
	cfg := core.NewConfig(p)
	cfg.ThRH = s.ThRH
	cfg.Org = org
	return cfg
}

// AllDefenses lists every name NewDefense accepts, in -list order.
func AllDefenses() []string {
	names := make([]string, len(defenses))
	for i, d := range defenses {
		names[i] = d.name
	}
	return names
}

// NewDefense instantiates a defense by display name for the scale.
func (s Scale) NewDefense(name string, p dram.Params) (defense.Defense, error) {
	for _, d := range defenses {
		if d.name == name {
			return d.build(s, p)
		}
	}
	return nil, fmt.Errorf("experiments: unknown defense %q", name)
}

// specRate prefixes the name of n copies of one SPEC application:
// specrate:<app>.
const specRate = "specrate:"

// target is what a workload constructor may read: the scale, the DRAM it
// runs on, and the row or SPEC application its caller named.
type target struct {
	s    Scale
	p    dram.Params
	amap *mc.AddrMap
	mem  uint64
	row  int
	app  string
}

// workloads is the workload catalogue, in -list order. span is how many
// rows an attack occupies, centred on the row it is given: 1 for S3's
// aggressor, 3 for double-sided's victim and its two aggressors, and 0 for
// a workload that takes no row.
var workloads = []struct {
	name  string
	span  int
	build func(t target) (workload.Workload, error)
}{
	{"S1", 0, func(t target) (workload.Workload, error) { return workload.S1(t.amap, t.p, t.s.Seed), nil }},
	{"S2", 0, func(t target) (workload.Workload, error) { return workload.S2(t.amap, t.p, t.s.CBTThreshold), nil }},
	{"S3", 1, func(t target) (workload.Workload, error) { return workload.S3(t.amap, t.p, t.row), nil }},
	{"double-sided", 3, func(t target) (workload.Workload, error) { return workload.DoubleSided(t.amap, t.row), nil }},
	{"mix-high", 0, func(t target) (workload.Workload, error) { return workload.MixHigh(t.s.Cores, t.mem, t.s.Seed) }},
	{"mix-blend", 0, func(t target) (workload.Workload, error) { return workload.MixBlend(t.s.Cores, t.mem, t.s.Seed), nil }},
	{"FFT", 0, func(t target) (workload.Workload, error) { return workload.FFT(t.s.Cores, t.mem, t.s.Seed), nil }},
	{"MICA", 0, func(t target) (workload.Workload, error) { return workload.MICA(t.s.Cores, t.mem, t.s.Seed), nil }},
	{"PageRank", 0, func(t target) (workload.Workload, error) { return workload.PageRank(t.s.Cores, t.mem, t.s.Seed), nil }},
	{"RADIX", 0, func(t target) (workload.Workload, error) { return workload.Radix(t.s.Cores, t.mem, t.s.Seed), nil }},
	{specRate + "<app>", 0, func(t target) (workload.Workload, error) {
		return workload.SPECRate(t.app, t.s.Cores, t.mem, t.s.Seed)
	}},
}

// AllSPECApps lists every application specrate:<app> accepts.
func AllSPECApps() []string {
	ps := workload.Profiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// AllWorkloads lists every name NewWorkload accepts, in -list order;
// specrate:<app> stands for one name per SPEC application.
func AllWorkloads() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// NewWorkload builds the named workload on the scale's machine. row is the
// aggressor row of S3 and the victim row of double-sided; the other
// workloads ignore it. The core count and the row arrive from command
// flags, so both are checked here, the row by workload.CheckRow.
func (s Scale) NewWorkload(name string, row int) (workload.Workload, error) {
	key, app := name, ""
	if a, ok := strings.CutPrefix(name, specRate); ok {
		key, app = specRate+"<app>", a
	}
	for _, w := range workloads {
		if w.name != key {
			continue
		}
		p := s.MachineConfig().DRAM
		if s.Cores < 1 {
			return workload.Workload{}, fmt.Errorf("experiments: %s: %d cores, want at least 1", name, s.Cores)
		}
		if w.span > 0 {
			if err := workload.CheckRow(row, w.span/2, w.span/2, p.RowsPerBank); err != nil {
				return workload.Workload{}, fmt.Errorf("experiments: %s: %w", name, err)
			}
		}
		amap, err := mc.NewAddrMap(p)
		if err != nil {
			return workload.Workload{}, err
		}
		return w.build(target{s: s, p: p, amap: amap, mem: uint64(p.TotalCapacityBytes()), row: row, app: app})
	}
	return workload.Workload{}, fmt.Errorf("experiments: unknown workload %q", name)
}

// CellRequests returns the request budget of a grid cell running the named
// workload: the scale's Requests, except that S2 needs at least three full
// exhaust-then-attack cycles (each ≈ 40.8× the CBT threshold in accesses).
func (s Scale) CellRequests(name string) int64 {
	if name != "S2" {
		return s.Requests
	}
	cycle := int64(float64(s.CBTThreshold)*0.9*128) + 12*int64(s.CBTThreshold)
	return max(s.Requests, 3*cycle)
}
