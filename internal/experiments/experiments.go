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
	"repro/internal/energy"
	"repro/internal/mc"
	"repro/internal/parallel"
	"repro/internal/probe"
	"repro/internal/sim"
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
	// Telemetry, when set, attaches one recorder from the collector to each
	// grid cell and records the cell's telemetry and trace into the
	// collector by job index, so every export is byte-identical across
	// serial and parallel runs. Each call to a grid experiment restarts the
	// collector.
	Telemetry *probe.Collector
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
		SPECApps:     AllSPECApps(),
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

// MachineConfig builds the simulated Table 4 machine for the scale.
func (s Scale) MachineConfig() sim.Config {
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

// runCell builds one grid cell's workload and defense and runs them on the
// given cell runner, recycling the runner's machine (device, caches,
// controller, queues) across calls. rec, when non-nil, is attached to the
// machine for the duration of the run; a nil rec detaches any probes a
// previous cell left on the recycled machine.
func (s Scale) runCell(r *sim.CellRunner, j cellJob, rec *probe.Recorder) (Cell, error) {
	w, err := s.NewWorkload(j.workload, AttackRow)
	if err != nil {
		return Cell{}, err
	}
	def, err := s.NewDefense(j.defense, s.MachineConfig().DRAM)
	if err != nil {
		return Cell{}, err
	}
	r.SetRecorder(rec)
	res, err := r.Run(def, w, sim.Limits{MaxRequests: s.CellRequests(j.workload), MaxTime: 30 * clock.Second})
	if err != nil {
		return Cell{}, fmt.Errorf("experiments: %s/%s: %w", j.label, j.defense, err)
	}
	return Cell{
		Workload:   j.label,
		Defense:    j.defense,
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

// cellJob is one cell of an experiment grid: a catalogue workload under a
// catalogue defense, reported under label (a grid may show a workload under
// another name, such as Table 1's adversarial-S1). The worker that runs the
// cell builds the workload, so no generator state is shared between cells.
type cellJob struct {
	label    string
	workload string
	defense  string
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
	cfg := s.MachineConfig()
	s.Telemetry.Start(len(jobs))
	return parallel.Map(pool, len(jobs), func(worker, i int) (Cell, error) {
		if runners[worker] == nil {
			runners[worker] = sim.NewCellRunner(cfg)
		}
		j := jobs[i]
		// One recorder per cell, not per worker: recorders accumulate, and
		// the collector slots them by job index so serial and parallel runs
		// export identical series and traces. A nil collector builds a nil
		// recorder, which runs the cell detached.
		rec := s.Telemetry.NewRecorder()
		c, err := s.runCell(runners[worker], j, rec)
		if err != nil {
			return Cell{}, err
		}
		s.Telemetry.Record(i, probe.CellLabel{Workload: j.label, Defense: j.defense}, rec)
		return c, nil
	})
}

// Figure7a runs the multi-programmed and multi-threaded study for every
// defense and returns cells in display order, including the SPECrate average
// and the cross-workload Average row the figure shows. The full grid —
// every SPEC app and named workload under every defense — runs as one flat
// batch of independent cells on the scale's worker pool.
func Figure7a(s Scale) ([]Cell, error) {
	// Per defense: the SPEC apps backing SPECrate(Avg), then the named
	// workloads. The job list mirrors the display order so reassembly below
	// is a linear walk.
	named := []string{"mix-high", "mix-blend", "FFT", "MICA", "PageRank", "RADIX"}
	var jobs []cellJob
	for _, dname := range DefenseNames() {
		for _, app := range s.SPECApps {
			jobs = append(jobs, cellJob{label: "specrate-" + app, workload: specRate + app, defense: dname})
		}
		for _, wname := range named {
			jobs = append(jobs, cellJob{label: wname, workload: wname, defense: dname})
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
		for range named {
			cells = append(cells, results[i])
			i++
		}
	}
	cells = append(cells, averageRows(cells)...)
	return cells, nil
}

// averageRows returns the per-defense Average row Figure 7(a) shows, in the
// DefenseNames display order (the order of the figure's bars).
func averageRows(cells []Cell) []Cell {
	var out []Cell
	for _, n := range DefenseNames() {
		var sum float64
		count := 0
		for _, c := range cells {
			if c.Defense == n {
				sum += c.Ratio
				count++
			}
		}
		if count > 0 {
			out = append(out, Cell{Workload: "Average", Defense: n, Ratio: sum / float64(count)})
		}
	}
	return out
}

// Figure7b runs the synthetic study (S1, S2, S3) for every defense, fanning
// the 12-cell grid out on the scale's worker pool.
func Figure7b(s Scale) ([]Cell, error) {
	var jobs []cellJob
	for _, wname := range []string{"S1", "S2", "S3"} {
		for _, dname := range DefenseNames() {
			jobs = append(jobs, cellJob{label: wname, workload: wname, defense: dname})
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
	return analysis.Derive(s.twiceConfig(s.MachineConfig().DRAM, core.PA))
}

// Table3 returns the timing/energy constants (the paper's measurements).
func Table3() energy.Model { return energy.Table3() }

// Table3Measured runs an S3 attack under the paper's default table
// organization (pa-TWiCe) and aggregates Table 3's constants over the
// simulated command mix, reproducing the §7.1 overheads.
func Table3Measured(s Scale) (energy.Breakdown, error) {
	cfg := s.MachineConfig()
	def, err := s.NewDefense("TWiCe", cfg.DRAM)
	if err != nil {
		return energy.Breakdown{}, err
	}
	w, err := s.NewWorkload("S3", AttackRow)
	if err != nil {
		return energy.Breakdown{}, err
	}
	res, err := sim.Run(cfg, def, w, sim.Limits{MaxRequests: s.Requests, MaxTime: 10 * clock.Second})
	if err != nil {
		return energy.Breakdown{}, err
	}
	tw := def.(*core.TWiCe)
	return energy.Table3().Aggregate(res.Counters, tw.Ops(), tw.Config().Org, cfg.DRAM.BanksPerRank), nil
}

// AreaReport reproduces the §6.2/§7.1 storage figures.
func AreaReport(s Scale) energy.Area {
	return energy.AreaModel(s.twiceConfig(s.MachineConfig().DRAM, core.PA))
}

// Table4 renders the simulated system configuration.
func Table4(s Scale) string {
	cfg := s.MachineConfig()
	var b strings.Builder
	fmt.Fprintf(&b, "cores: %d @ %.1f GHz, IPC %.1f, MLP %d\n", s.Cores, cfg.CPU.FreqGHz, cfg.CPU.IPC, cfg.CPU.MLP)
	fmt.Fprintf(&b, "caches: L1 %dKB, L2 %dKB private; L3 %dMB shared; %dB lines; prefetch on\n",
		cfg.Cache.L1.SizeBytes>>10, cfg.Cache.L2.SizeBytes>>10, cfg.Cache.L3.SizeBytes>>20, cfg.Cache.L1.LineBytes)
	fmt.Fprintf(&b, "memory: %d channels × %d ranks × %d banks DDR4-2400, %d GiB total\n",
		cfg.DRAM.Channels, cfg.DRAM.RanksPerChannel, cfg.DRAM.BanksPerRank, cfg.DRAM.TotalCapacityBytes()>>30)
	fmt.Fprintf(&b, "controller: PAR-BS scheduling, %s paging, %d-entry queues\n",
		cfg.MC.PagePolicy, cfg.MC.QueueDepth)
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
	defs := []string{"CRA", "CBT-256", "PARA-0.001", "PRoHIT", "TWiCe"}
	// The typical mix first, then the three adversarial patterns.
	patterns := []cellJob{
		{label: "mix-high", workload: "mix-high"},
		{label: "adversarial-S1", workload: "S1"},
		{label: "adversarial-S2", workload: "S2"},
		{label: "adversarial-S3", workload: "S3"},
	}
	// One flat grid: every defense under the typical mix and all three
	// adversarial patterns, reassembled into rows afterwards.
	var jobs []cellJob
	for _, dname := range defs {
		for _, j := range patterns {
			j.defense = dname
			jobs = append(jobs, j)
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
