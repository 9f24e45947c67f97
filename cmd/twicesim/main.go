// Command twicesim runs one workload against one or more row-hammer defenses
// on the simulated Table 4 machine and prints the full activity report.
//
// Usage:
//
//	twicesim -workload S3 -defense TWiCe -requests 500000
//	twicesim -workload mix-high -defense PARA-0.002 -cores 16
//	twicesim -workload S3 -defense none,TWiCe,PARA-0.002 -parallel 3
//	twicesim -workload specrate:mcf -defense CBT-256
//	twicesim -list
//
// Workloads: S1, S2, S3, double-sided, mix-high, mix-blend, FFT, MICA,
// PageRank, RADIX, specrate:<app>. Defenses: none, TWiCe, TWiCe-fa,
// TWiCe-sep, PARA-0.001, PARA-0.002, CBT-256, CRA, PRoHIT, Graphene. A
// comma-separated -defense list runs each defense as an independent
// simulation — concurrently under -parallel — and prints the reports in list
// order.
//
// -telemetry attaches event probes to every run and writes histogram,
// occupancy, and gauge series as <dir>/run.csv and <dir>/run.jsonl (one cell
// per defense, byte-identical at any -parallel value). -timeline writes a
// Chrome trace-event / Perfetto JSON timeline of every run (open it at
// ui.perfetto.dev); -timeline-windows K switches it to flight-recorder mode,
// keeping only the last K tREFI windows unless a detection pins the ring.
// -debug-addr serves expvar and net/http/pprof while the simulations run.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/clock"
	"repro/internal/detutil"
	"repro/internal/experiments"
	"repro/internal/mc"
	"repro/internal/parallel"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	wname := flag.String("workload", "S3", "workload to run (see -list)")
	dname := flag.String("defense", "TWiCe", "defense to attach, or a comma-separated list (see -list)")
	cores := flag.Int("cores", 4, "cores for multi-programmed/threaded workloads")
	requests := flag.Int64("requests", 200000, "demand memory requests to simulate")
	scaleFlag := flag.String("scale", "quick", "threshold scale: quick (1 ms window) or paper (64 ms)")
	seed := flag.Int64("seed", 1, "simulation seed")
	hammerRow := flag.Int("row", 5000, "aggressor/victim row for S3 and double-sided")
	replay := flag.String("replay", "", "replay a recorded trace file instead of a named workload")
	par := flag.Int("parallel", 0, "worker goroutines across -defense list entries (0 = all CPUs, 1 = serial)")
	telemetryDir := flag.String("telemetry", "", "directory to write run telemetry CSV/JSONL into")
	timelineFile := flag.String("timeline", "", "write a Chrome trace-event / Perfetto JSON timeline to this file")
	timelineWindows := flag.Int("timeline-windows", 0, "flight-recorder mode: keep only the last K tREFI windows (0 = full trace; first detection pins the ring)")
	debugAddr := flag.String("debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	list := flag.Bool("list", false, "list workloads and defenses, then exit")
	flag.Parse()

	if *list {
		fmt.Println("defenses: none, TWiCe, TWiCe-fa, TWiCe-sep, PARA-0.001, PARA-0.002, CBT-256, CRA, PRoHIT, Graphene")
		fmt.Println("workloads: S1, S2, S3, double-sided, mix-high, mix-blend, FFT, MICA, PageRank, RADIX, specrate:<app>")
		fmt.Print("SPEC apps: ")
		names := make([]string, 0, 29)
		for _, p := range workload.Profiles() {
			names = append(names, p.Name)
		}
		fmt.Println(strings.Join(names, ", "))
		return
	}

	var s experiments.Scale
	switch *scaleFlag {
	case "quick":
		s = experiments.QuickScale()
	case "paper":
		s = experiments.PaperScale()
	default:
		fail(fmt.Errorf("unknown scale %q", *scaleFlag))
	}
	s.Cores = *cores
	s.Seed = *seed

	cfg := sim.DefaultConfig(*cores)
	cfg.DRAM.TREFW = s.TREFW
	cfg.DRAM.NTh = s.NTh
	cfg.MC = mc.NewConfig(cfg.DRAM)
	cfg.Seed = *seed

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		// fail() exits without running defers; an aborted run loses its
		// profile, which is fine for a diagnostics flag.
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memprofile)

	// Workloads carry generator state (RNG cursors, trace positions), so each
	// defense gets a freshly built copy; replayed traces are read into memory
	// once and re-decoded per defense.
	buildW := func() (workload.Workload, error) {
		return buildWorkload(*wname, s, cfg, *hammerRow)
	}
	if *replay != "" {
		data, err := os.ReadFile(*replay)
		if err != nil {
			fail(err)
		}
		buildW = func() (workload.Workload, error) {
			rep, err := trace.NewReplayer(*replay, bytes.NewReader(data))
			if err != nil {
				return workload.Workload{}, err
			}
			return workload.Workload{Name: "replay:" + *replay, Gens: []workload.Generator{rep}, BypassCache: true}, nil
		}
	}

	if *debugAddr != "" {
		_, addr, err := probe.ServeDebug(*debugAddr)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "twicesim: debug server on http://%s/debug/vars and /debug/pprof/\n", addr)
	}
	var col *probe.Collector
	if *telemetryDir != "" {
		col = &probe.Collector{}
	}
	var grid *timeline.Grid
	if *timelineFile != "" {
		grid = &timeline.Grid{Config: timeline.Config{Windows: *timelineWindows}}
	}

	dnames := strings.Split(*dname, ",")
	if col != nil {
		col.Start(len(dnames))
	}
	if grid != nil {
		grid.Start(len(dnames))
	}
	reports, err := parallel.Map(parallel.Runner{Workers: *par}, len(dnames), func(_, i int) (string, error) {
		w, err := buildW()
		if err != nil {
			return "", err
		}
		name := strings.TrimSpace(dnames[i])
		def, err := s.NewDefense(name, cfg.DRAM)
		if err != nil {
			return "", err
		}
		if col == nil && grid == nil {
			res, err := sim.Run(cfg, def, w, sim.Limits{MaxRequests: *requests, MaxTime: 30 * clock.Second})
			if err != nil {
				return "", err
			}
			return report(res), nil
		}
		m, err := sim.NewMachine(cfg, def, w)
		if err != nil {
			return "", err
		}
		var cfgRec probe.Config
		if col != nil {
			cfgRec = col.Config
		}
		rec := probe.NewRecorder(cfgRec)
		var tl *timeline.Recorder
		if grid != nil {
			tl = grid.NewRecorder()
			rec.SetSink(tl)
		}
		m.SetRecorder(rec)
		res, err := m.Run(sim.Limits{MaxRequests: *requests, MaxTime: 30 * clock.Second})
		if err != nil {
			return "", err
		}
		if col != nil {
			col.Record(i, probe.CellLabel{Workload: res.Workload, Defense: name}, rec.Snapshot())
		}
		if tl != nil {
			grid.Record(i, res.Workload, name, tl)
		}
		return report(res), nil
	})
	if err != nil {
		fail(err)
	}
	writeTelemetry(*telemetryDir, col)
	writeTimeline(*timelineFile, grid)
	for i, r := range reports {
		if i > 0 {
			fmt.Println(strings.Repeat("-", 60))
		}
		fmt.Print(r)
	}
}

// writeTelemetry exports the collected per-defense series as run.csv and
// run.jsonl in dir (no-op without -telemetry).
func writeTelemetry(dir string, col *probe.Collector) {
	if col == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	writeOne := func(path string, write func(f *os.File) error) {
		f, err := os.Create(path)
		if err != nil {
			fail(err)
		}
		if err := write(f); err != nil {
			_ = f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	writeOne(dir+"/run.csv", func(f *os.File) error { return col.WriteCSV(f) })
	writeOne(dir+"/run.jsonl", func(f *os.File) error { return col.WriteJSONL(f) })
	fmt.Fprintf(os.Stderr, "twicesim: wrote %s/run.csv and %s/run.jsonl\n", dir, dir)
}

// writeTimeline exports the recorded timelines as one Chrome trace-event
// JSON file (no-op without -timeline).
func writeTimeline(path string, grid *timeline.Grid) {
	if grid == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := grid.WriteTrace(f); err != nil {
		_ = f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "twicesim: wrote %s (open it at https://ui.perfetto.dev)\n", path)
}

// report renders the activity report for one completed run.
func report(res *sim.Result) string {
	var b strings.Builder
	c := res.Counters
	fmt.Fprintf(&b, "workload  %s\ndefense   %s\nsim time  %v\n\n", res.Workload, res.Defense, res.SimTime)
	fmt.Fprintf(&b, "requests served    %d (avg latency %v, max %v)\n", c.RequestsServed, c.AvgLatency(), c.MaxLatency)
	fmt.Fprintf(&b, "row activations    %d normal + %d defense-added (%.4f%%)\n", c.NormalACTs, c.DefenseACTs, 100*c.AdditionalACTRatio())
	fmt.Fprintf(&b, "row buffer         %.1f%% hits (%d hits / %d misses / %d conflicts)\n",
		100*c.RowHitRate(), c.RowHits, c.RowMisses, c.RowConflicts)
	fmt.Fprintf(&b, "refreshes          %d auto-refresh, %d ARR commands, %d nacks\n", c.Refreshes, c.ARRs, c.Nacks)
	fmt.Fprintf(&b, "detections         %d row-hammer aggressors flagged\n", c.Detections)
	if len(res.DetectionsByCore) > 0 {
		b.WriteString("attribution       ")
		for _, core := range detutil.SortedKeys(res.DetectionsByCore) {
			fmt.Fprintf(&b, " core%d:%d", core, res.DetectionsByCore[core])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "bit flips          %d", len(res.Flips))
	if len(res.Flips) > 0 {
		f := res.Flips[0]
		fmt.Fprintf(&b, " (first: %v physical row %d at %v)", f.Bank, f.PhysRow, f.Time)
	}
	b.WriteString("\n")
	if c.CacheHits+c.CacheMisses > 0 {
		fmt.Fprintf(&b, "caches             %.1f%% hierarchy hit rate, L3 %.1f%%\n",
			100*float64(c.CacheHits)/float64(c.CacheHits+c.CacheMisses), 100*res.L3.HitRate())
	}
	return b.String()
}

// writeMemProfile snapshots the heap into path (no-op when empty).
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	runtime.GC() // profile live objects, not garbage
	if err := pprof.WriteHeapProfile(f); err != nil {
		_ = f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
}

func buildWorkload(name string, s experiments.Scale, cfg sim.Config, row int) (workload.Workload, error) {
	mem := uint64(cfg.DRAM.TotalCapacityBytes())
	if app, ok := strings.CutPrefix(name, "specrate:"); ok {
		return workload.SPECRate(app, s.Cores, mem, s.Seed)
	}
	switch name {
	case "S1", "S2", "S3", "double-sided":
		amap, err := mc.NewAddrMap(cfg.DRAM)
		if err != nil {
			return workload.Workload{}, err
		}
		switch name {
		case "S1":
			return workload.S1(amap, cfg.DRAM, s.Seed), nil
		case "S2":
			return workload.S2(amap, cfg.DRAM, s.CBTThreshold), nil
		case "S3":
			return workload.S3(amap, cfg.DRAM, row), nil
		default:
			return workload.DoubleSided(amap, row), nil
		}
	case "mix-high":
		return workload.MixHigh(s.Cores, mem, s.Seed)
	case "mix-blend":
		return workload.MixBlend(s.Cores, mem, s.Seed), nil
	case "FFT":
		return workload.FFT(s.Cores, mem, s.Seed), nil
	case "MICA":
		return workload.MICA(s.Cores, mem, s.Seed), nil
	case "PageRank":
		return workload.PageRank(s.Cores, mem, s.Seed), nil
	case "RADIX":
		return workload.Radix(s.Cores, mem, s.Seed), nil
	default:
		return workload.Workload{}, fmt.Errorf("unknown workload %q (try -list)", name)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "twicesim:", err)
	os.Exit(1)
}
