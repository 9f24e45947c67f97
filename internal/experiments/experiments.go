// Package experiments reproduces every table and figure of the paper's
// evaluation: the Table 1 qualitative comparison, the Table 2 parameter
// derivation, the Table 3 timing/energy model, the Table 4 system
// configuration, and the Figure 7(a)/(b) additional-activation studies.
// Both cmd/paperrepro and the repository benchmarks drive this package.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/defense/cbt"
	"repro/internal/defense/cra"
	"repro/internal/defense/graphene"
	"repro/internal/defense/para"
	"repro/internal/defense/prohit"
	"repro/internal/detutil"
	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/mc"
	"repro/internal/parallel"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// Scale sizes an experiment run. PaperScale uses the paper's thresholds and
// refresh window (slow but faithful); QuickScale shrinks the refresh window
// and thresholds proportionally so every experiment finishes in seconds
// while preserving the ratios the figures report.
type Scale struct {
	Name         string
	TREFW        clock.Time
	NTh          int
	ThRH         int   // TWiCe detection threshold
	CBTThreshold int   // CBT top threshold
	Cores        int   // cores for the multi-programmed/threaded workloads
	Requests     int64 // demand requests per cell
	SPECApps     []string
	Seed         int64
	// Parallel sizes the worker pool the cell grids fan out on: 0 (the
	// default) uses runtime.GOMAXPROCS(0), 1 forces serial execution.
	// Results are identical either way — cells are independent machines and
	// the engine reassembles them by index (see internal/parallel).
	Parallel int
	// Progress, when set, receives (done, total) after each grid cell
	// completes — the hook cmd-level progress meters plug into. It observes
	// execution only and must not affect results; with Parallel != 1 it is
	// called from worker goroutines and must be safe for concurrent use.
	Progress func(done, total int)
	// Telemetry, when set, attaches one probe.Recorder per grid cell and
	// records its snapshot into the collector by job index, so the exported
	// series are byte-identical across serial and parallel runs. Each call
	// to a grid experiment restarts the collector.
	Telemetry *probe.Collector
	// Timeline, when set, attaches one timeline.Recorder per grid cell (as
	// the probe recorder's sink) and records it by job index, so the Chrome
	// trace export is byte-identical across serial and parallel runs. Each
	// call to a grid experiment restarts the grid.
	Timeline *timeline.Grid
}

// PaperScale reproduces the paper's parameters exactly (Table 2): thRH =
// 32768 over a 64 ms window. Runs take minutes per cell.
func PaperScale() Scale {
	return Scale{
		Name:         "paper",
		TREFW:        64 * clock.Millisecond,
		NTh:          139000,
		ThRH:         32768,
		CBTThreshold: 32768,
		Cores:        16,
		Requests:     600000,
		SPECApps:     allSPECApps(),
		Seed:         1,
	}
}

// QuickScale shrinks the refresh window 64× (1 ms, maxlife 128) and the
// thresholds by the same factor (thRH 512), preserving every ratio while
// running in seconds.
func QuickScale() Scale {
	return Scale{
		Name:         "quick",
		TREFW:        clock.Millisecond,
		NTh:          2048, // ≥ 4·thRH; scaled like thRH
		ThRH:         512,
		CBTThreshold: 512,
		Cores:        4,
		Requests:     120000,
		SPECApps:     []string{"mcf", "lbm", "libquantum", "omnetpp", "povray", "gcc"},
		Seed:         1,
	}
}

func allSPECApps() []string {
	ps := workload.Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// machineConfig builds the simulated machine for the scale.
func (s Scale) machineConfig() sim.Config {
	cfg := sim.DefaultConfig(s.Cores)
	cfg.DRAM.TREFW = s.TREFW
	cfg.DRAM.NTh = s.NTh
	cfg.MC = mc.NewConfig(cfg.DRAM)
	cfg.Seed = s.Seed
	return cfg
}

// DefenseNames lists the Figure 7 defense configurations in display order.
func DefenseNames() []string {
	return []string{"PARA-0.001", "PARA-0.002", "CBT-256", "TWiCe"}
}

// NewDefense instantiates a defense by display name for the scale.
func (s Scale) NewDefense(name string, p dram.Params) (defense.Defense, error) {
	switch name {
	case "none":
		return defense.Nop{}, nil
	case "PARA-0.001":
		return para.New(0.001, p, s.Seed+11)
	case "PARA-0.002":
		return para.New(0.002, p, s.Seed+13)
	case "CBT-256":
		cfg := cbt.NewConfig(p)
		cfg.Threshold = s.CBTThreshold
		return cbt.New(cfg)
	case "TWiCe":
		cfg := core.NewConfig(p)
		cfg.ThRH = s.ThRH
		return core.New(cfg)
	case "TWiCe-fa":
		cfg := core.NewConfig(p)
		cfg.ThRH = s.ThRH
		cfg.Org = core.FA
		return core.New(cfg)
	case "TWiCe-sep":
		cfg := core.NewConfig(p)
		cfg.ThRH = s.ThRH
		cfg.Org = core.Separated
		return core.New(cfg)
	case "CRA":
		cfg := cra.NewConfig(p)
		cfg.Threshold = s.ThRH
		return cra.New(cfg)
	case "PRoHIT":
		return prohit.New(prohit.NewConfig(p), s.Seed+17)
	case "Graphene":
		return graphene.New(graphene.NewConfig(p, s.ThRH))
	default:
		return nil, fmt.Errorf("experiments: unknown defense %q", name)
	}
}

// s2MinRequests returns the request budget S2 needs: at least three full
// exhaust-then-attack cycles (each ≈ 40.8× the CBT threshold in accesses).
func (s Scale) s2MinRequests() int64 {
	cycle := int64(float64(s.CBTThreshold)*0.9*128) + 12*int64(s.CBTThreshold)
	min := 3 * cycle
	if s.Requests > min {
		return s.Requests
	}
	return min
}

// Cell is one (workload, defense) measurement.
type Cell struct {
	Workload   string
	Defense    string
	Ratio      float64 // additional ACTs / normal ACTs (the Figure 7 metric)
	NormalACTs int64
	ExtraACTs  int64
	Detections int64
	ARRs       int64
	Nacks      int64
	Flips      int64
	SimTime    clock.Time
}

// runCell executes one workload under one defense on the given cell runner,
// recycling the runner's machine (device, caches, controller, queues) across
// calls. The defense is built fresh per cell — it is the one component whose
// type varies across a grid. rec, when non-nil, is attached to the machine
// for the duration of the run; a nil rec detaches any probes a previous cell
// left on the recycled machine.
func (s Scale) runCell(r *sim.CellRunner, wname string, w workload.Workload, dname string, rec *probe.Recorder) (Cell, error) {
	requests := s.Requests
	if wname == "S2" || wname == "adversarial-S2" {
		requests = s.s2MinRequests()
	}
	def, err := s.NewDefense(dname, s.machineConfig().DRAM)
	if err != nil {
		return Cell{}, err
	}
	r.SetRecorder(rec)
	res, err := r.Run(def, w, sim.Limits{MaxRequests: requests, MaxTime: 30 * clock.Second})
	if err != nil {
		return Cell{}, fmt.Errorf("experiments: %s/%s: %w", wname, dname, err)
	}
	return Cell{
		Workload:   wname,
		Defense:    dname,
		Ratio:      res.Counters.AdditionalACTRatio(),
		NormalACTs: res.Counters.NormalACTs,
		ExtraACTs:  res.Counters.DefenseACTs,
		Detections: res.Counters.Detections,
		ARRs:       res.Counters.ARRs,
		Nacks:      res.Counters.Nacks,
		Flips:      int64(len(res.Flips)),
		SimTime:    res.SimTime,
	}, nil
}

// cellJob names one (workload, defense) cell of an experiment grid. The
// workload is built inside the worker that runs the cell: generators carry
// per-run RNG state, so sharing a built workload across cells would couple
// them.
type cellJob struct {
	wname string
	build func() (workload.Workload, error)
	dname string
}

// runGrid executes a flat list of independent cells on the scale's worker
// pool and returns one Cell per job, in job order. Each pool slot owns one
// recycled sim.CellRunner: the first cell a slot runs pays for machine
// construction, every later cell resets the same device/cache/controller
// state in place (the reuse equivalence test in internal/sim pins that a
// recycled machine behaves byte-identically to a fresh one). Execution order
// still cannot affect the result: cells share nothing but the immutable
// Scale parameters, and results land by index.
func (s Scale) runGrid(jobs []cellJob) ([]Cell, error) {
	pool := parallel.Runner{Workers: s.Parallel, OnDone: s.Progress}
	runners := make([]*sim.CellRunner, pool.PoolSize(len(jobs)))
	cfg := s.machineConfig()
	if s.Telemetry != nil {
		s.Telemetry.Start(len(jobs))
	}
	if s.Timeline != nil {
		s.Timeline.Start(len(jobs))
	}
	return parallel.Map(pool, len(jobs), func(worker, i int) (Cell, error) {
		if runners[worker] == nil {
			runners[worker] = sim.NewCellRunner(cfg)
		}
		j := jobs[i]
		w, err := j.build()
		if err != nil {
			return Cell{}, err
		}
		// One recorder per cell, not per worker: recorders accumulate, and
		// the collector slots them by job index so serial and parallel runs
		// export identical series.
		// The timeline sink rides on the probe recorder's apply path, so it
		// needs one even when telemetry collection is off.
		var rec *probe.Recorder
		if s.Telemetry != nil {
			rec = probe.NewRecorder(s.Telemetry.Config)
		} else if s.Timeline != nil {
			rec = probe.NewRecorder(probe.Config{}) // sink carrier only
		}
		var tl *timeline.Recorder
		if s.Timeline != nil && rec != nil {
			tl = s.Timeline.NewRecorder()
			rec.SetSink(tl)
		}
		c, err := s.runCell(runners[worker], j.wname, w, j.dname, rec)
		if err != nil {
			return Cell{}, err
		}
		if s.Telemetry != nil && rec != nil {
			s.Telemetry.Record(i, probe.CellLabel{Workload: j.wname, Defense: j.dname}, rec.Snapshot())
		}
		if tl != nil {
			s.Timeline.Record(i, j.wname, j.dname, tl)
		}
		return c, nil
	})
}

// figure7aWorkloads builds the Figure 7(a) workload set: SPECrate average is
// represented by running each app and averaging, plus mix-high, mix-blend,
// FFT, MICA, PageRank, and RADIX.
func (s Scale) figure7aWorkloads(memBytes uint64) (map[string]func() (workload.Workload, error), []string) {
	make7a := map[string]func() (workload.Workload, error){
		"mix-high": func() (workload.Workload, error) { return workload.MixHigh(s.Cores, memBytes, s.Seed) },
		"mix-blend": func() (workload.Workload, error) {
			return workload.MixBlend(s.Cores, memBytes, s.Seed), nil
		},
		"FFT":      func() (workload.Workload, error) { return workload.FFT(s.Cores, memBytes, s.Seed), nil },
		"MICA":     func() (workload.Workload, error) { return workload.MICA(s.Cores, memBytes, s.Seed), nil },
		"PageRank": func() (workload.Workload, error) { return workload.PageRank(s.Cores, memBytes, s.Seed), nil },
		"RADIX":    func() (workload.Workload, error) { return workload.Radix(s.Cores, memBytes, s.Seed), nil },
	}
	order := []string{"SPECrate(Avg)", "mix-high", "mix-blend", "FFT", "MICA", "PageRank", "RADIX"}
	return make7a, order
}

// Figure7a runs the multi-programmed and multi-threaded study for every
// defense and returns cells in display order, including the SPECrate average
// and the cross-workload Average row the figure shows. The full grid —
// every SPEC app and named workload under every defense — runs as one flat
// batch of independent cells on the scale's worker pool.
func Figure7a(s Scale) ([]Cell, error) {
	cfg := s.machineConfig()
	memBytes := uint64(cfg.DRAM.TotalCapacityBytes())
	builders, order := s.figure7aWorkloads(memBytes)

	// Per defense: the SPEC apps backing SPECrate(Avg), then the named
	// workloads. The job list mirrors the display order so reassembly below
	// is a linear walk.
	var jobs []cellJob
	for _, dname := range DefenseNames() {
		for _, app := range s.SPECApps {
			jobs = append(jobs, cellJob{
				wname: "specrate-" + app,
				build: func() (workload.Workload, error) {
					return workload.SPECRate(app, s.Cores, memBytes, s.Seed)
				},
				dname: dname,
			})
		}
		for _, wname := range order[1:] {
			jobs = append(jobs, cellJob{wname: wname, build: builders[wname], dname: dname})
		}
	}
	results, err := s.runGrid(jobs)
	if err != nil {
		return nil, err
	}

	var cells []Cell
	i := 0
	for _, dname := range DefenseNames() {
		// SPECrate(Avg): average the per-app ratios, sum the act counts.
		var sum float64
		var agg Cell
		for range s.SPECApps {
			c := results[i]
			i++
			sum += c.Ratio
			agg.NormalACTs += c.NormalACTs
			agg.ExtraACTs += c.ExtraACTs
			agg.Detections += c.Detections
			agg.Flips += c.Flips
		}
		agg.Workload = "SPECrate(Avg)"
		agg.Defense = dname
		agg.Ratio = sum / float64(len(s.SPECApps))
		cells = append(cells, agg)
		for range order[1:] {
			cells = append(cells, results[i])
			i++
		}
	}
	cells = append(cells, averageRows(cells)...)
	return cells, nil
}

// averageRows appends the per-defense Average row Figure 7(a) shows. Rows
// follow the DefenseNames display order — the order the figure's bars use —
// with any defense outside that set appended in sorted order.
func averageRows(cells []Cell) []Cell {
	byDefense := map[string][]Cell{}
	for _, c := range cells {
		byDefense[c.Defense] = append(byDefense[c.Defense], c)
	}
	display := DefenseNames()
	order := make([]string, 0, len(byDefense))
	for _, n := range display {
		if _, ok := byDefense[n]; ok {
			order = append(order, n)
		}
	}
	shown := make(map[string]bool, len(display))
	for _, n := range display {
		shown[n] = true
	}
	for _, n := range detutil.SortedKeys(byDefense) {
		if !shown[n] {
			order = append(order, n)
		}
	}
	var out []Cell
	for _, n := range order {
		var sum float64
		for _, c := range byDefense[n] {
			sum += c.Ratio
		}
		out = append(out, Cell{
			Workload: "Average",
			Defense:  n,
			Ratio:    sum / float64(len(byDefense[n])),
		})
	}
	return out
}

// Figure7b runs the synthetic study (S1, S2, S3) for every defense, fanning
// the 12-cell grid out on the scale's worker pool. The address map is shared
// across cells (it is immutable after construction); each cell builds its
// own workload because generators carry RNG state.
func Figure7b(s Scale) ([]Cell, error) {
	cfg := s.machineConfig()
	amap, err := mc.NewAddrMap(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	synthetics := []struct {
		name  string
		build func() workload.Workload
	}{
		{"S1", func() workload.Workload { return workload.S1(amap, cfg.DRAM, s.Seed) }},
		{"S2", func() workload.Workload { return workload.S2(amap, cfg.DRAM, s.CBTThreshold) }},
		{"S3", func() workload.Workload { return workload.S3(amap, cfg.DRAM, 5000) }},
	}
	var jobs []cellJob
	for _, syn := range synthetics {
		for _, dname := range DefenseNames() {
			build := syn.build
			jobs = append(jobs, cellJob{
				wname: syn.name,
				build: func() (workload.Workload, error) { return build(), nil },
				dname: dname,
			})
		}
	}
	return s.runGrid(jobs)
}

// RenderCells renders cells as an aligned text table.
func RenderCells(title string, cells []Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-16s %-12s %12s %12s %10s %8s %6s\n",
		"workload", "defense", "normalACTs", "extraACTs", "ratio", "detect", "flips")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-16s %-12s %12d %12d %9.4f%% %8d %6d\n",
			c.Workload, c.Defense, c.NormalACTs, c.ExtraACTs, 100*c.Ratio, c.Detections, c.Flips)
	}
	return b.String()
}

// Table2 reproduces the parameter table for the scale.
func Table2(s Scale) analysis.Derived {
	cfg := s.machineConfig()
	c := core.NewConfig(cfg.DRAM)
	c.ThRH = s.ThRH
	return analysis.Derive(c)
}

// Table3 returns the timing/energy constants (the paper's measurements).
func Table3() energy.Model { return energy.Table3() }

// Table3Measured runs an S3 attack under each table organization and
// aggregates Table 3's constants over the simulated command mix, reproducing
// the §7.1 overheads. The three org cells (fa, pa, separated) are
// independent and run on the scale's worker pool; the returned breakdown is
// the paper's default (pa) organization, with all three available through
// Table3MeasuredAll.
func Table3Measured(s Scale) (energy.Breakdown, error) {
	all, err := Table3MeasuredAll(s)
	if err != nil {
		return energy.Breakdown{}, err
	}
	return all[core.NewConfig(s.machineConfig().DRAM).Org], nil
}

// Table3MeasuredAll runs the §7.1 measurement for every table organization
// and returns the breakdowns keyed by organization.
func Table3MeasuredAll(s Scale) (map[core.Org]energy.Breakdown, error) {
	cfg := s.machineConfig()
	amap, err := mc.NewAddrMap(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	orgs := []core.Org{core.FA, core.PA, core.Separated}
	bds, err := parallel.Map(parallel.Runner{Workers: s.Parallel}, len(orgs), func(_, i int) (energy.Breakdown, error) {
		ccfg := core.NewConfig(cfg.DRAM)
		ccfg.ThRH = s.ThRH
		ccfg.Org = orgs[i]
		tw, err := core.New(ccfg)
		if err != nil {
			return energy.Breakdown{}, err
		}
		res, err := sim.Run(cfg, tw, workload.S3(amap, cfg.DRAM, 5000),
			sim.Limits{MaxRequests: s.Requests, MaxTime: 10 * clock.Second})
		if err != nil {
			return energy.Breakdown{}, err
		}
		return energy.Table3().Aggregate(res.Counters, tw.Ops(), ccfg.Org, cfg.DRAM.BanksPerRank), nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[core.Org]energy.Breakdown, len(orgs))
	for i, org := range orgs {
		out[org] = bds[i]
	}
	return out, nil
}

// AreaReport reproduces the §6.2/§7.1 storage figures.
func AreaReport(s Scale) energy.Area {
	cfg := s.machineConfig()
	c := core.NewConfig(cfg.DRAM)
	c.ThRH = s.ThRH
	return energy.AreaModel(c)
}

// Table4 renders the simulated system configuration.
func Table4(s Scale) string {
	cfg := s.machineConfig()
	var b strings.Builder
	fmt.Fprintf(&b, "cores: %d @ %.1f GHz, IPC %.1f, MLP %d\n", s.Cores, cfg.CPU.FreqGHz, cfg.CPU.IPC, cfg.CPU.MLP)
	fmt.Fprintf(&b, "caches: L1 %dKB, L2 %dKB private; L3 %dMB shared; %dB lines; prefetch on\n",
		cfg.Cache.L1.SizeBytes>>10, cfg.Cache.L2.SizeBytes>>10, cfg.Cache.L3.SizeBytes>>20, cfg.Cache.L1.LineBytes)
	fmt.Fprintf(&b, "memory: %d channels × %d ranks × %d banks DDR4-2400, %d GiB total\n",
		cfg.DRAM.Channels, cfg.DRAM.RanksPerChannel, cfg.DRAM.BanksPerRank, cfg.DRAM.TotalCapacityBytes()>>30)
	fmt.Fprintf(&b, "controller: %s scheduling, %s paging, %d-entry queues\n",
		cfg.MC.Scheduler, cfg.MC.PagePolicy, cfg.MC.QueueDepth)
	fmt.Fprintf(&b, "timing: tREFW %v, tREFI %v, tRFC %v, tRC %v\n",
		cfg.DRAM.TREFW, cfg.DRAM.TREFI, cfg.DRAM.TRFC, cfg.DRAM.TRC)
	return b.String()
}

// Table1Row is one qualitative-comparison measurement backing Table 1.
type Table1Row struct {
	Defense          string
	TypicalRatio     float64 // additional ACTs on a benign mixed workload
	AdversarialRatio float64 // worst additional ACTs across S1-S3
	Detects          bool
}

// Table1 quantifies the paper's qualitative comparison: each defense's
// overhead on typical versus adversarial patterns and whether it can detect
// attacks. CRA and PRoHIT are included beyond the Figure 7 set.
func Table1(s Scale) ([]Table1Row, error) {
	cfg := s.machineConfig()
	memBytes := uint64(cfg.DRAM.TotalCapacityBytes())
	amap, err := mc.NewAddrMap(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	defs := []string{"CRA", "CBT-256", "PARA-0.001", "PRoHIT", "TWiCe"}
	patterns := []struct {
		name  string
		build func() (workload.Workload, error)
	}{
		{"mix-high", func() (workload.Workload, error) { return workload.MixHigh(s.Cores, memBytes, s.Seed) }},
		{"adversarial-S1", func() (workload.Workload, error) { return workload.S1(amap, cfg.DRAM, s.Seed), nil }},
		{"adversarial-S2", func() (workload.Workload, error) { return workload.S2(amap, cfg.DRAM, s.CBTThreshold), nil }},
		{"adversarial-S3", func() (workload.Workload, error) { return workload.S3(amap, cfg.DRAM, 5000), nil }},
	}
	// One flat grid: every defense under the typical mix and all three
	// adversarial patterns, reassembled into rows afterwards.
	var jobs []cellJob
	for _, dname := range defs {
		for _, p := range patterns {
			jobs = append(jobs, cellJob{wname: p.name, build: p.build, dname: dname})
		}
	}
	results, err := s.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, len(defs))
	for d, dname := range defs {
		cells := results[d*len(patterns) : (d+1)*len(patterns)]
		worst := 0.0
		for _, c := range cells[1:] {
			if c.Ratio > worst {
				worst = c.Ratio
			}
		}
		rows = append(rows, Table1Row{
			Defense:          dname,
			TypicalRatio:     cells[0].Ratio,
			AdversarialRatio: worst,
			Detects:          dname != "PARA-0.001" && dname != "PRoHIT",
		})
	}
	return rows, nil
}

// RenderTable1 renders Table 1 rows.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %16s %20s %8s\n", "defense", "typical extra", "adversarial extra", "detects")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %15.4f%% %19.4f%% %8v\n",
			r.Defense, 100*r.TypicalRatio, 100*r.AdversarialRatio, r.Detects)
	}
	return b.String()
}
