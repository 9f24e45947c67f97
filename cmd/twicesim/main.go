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
// -list prints every workload and defense name, read from the catalogue in
// internal/experiments. A comma-separated -defense list runs each defense as
// an independent simulation — concurrently under -parallel — and prints the
// reports in list order.
//
// -telemetry attaches event probes to every run and writes histogram,
// occupancy, and gauge series as <dir>/run.csv and <dir>/run.jsonl (one cell
// per defense, byte-identical at any -parallel value). -timeline writes a
// Chrome trace-event / Perfetto JSON timeline of every run (open it at
// ui.perfetto.dev); -timeline-windows K switches it to flight-recorder mode,
// keeping only the last K tREFI windows unless a detection pins the ring.
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
	"repro/internal/parallel"
	"repro/internal/probe"
	"repro/internal/sim"
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
	hammerRow := flag.Int("row", experiments.AttackRow, "aggressor/victim row for S3 and double-sided")
	replay := flag.String("replay", "", "replay a recorded trace file instead of a named workload")
	par := flag.Int("parallel", 0, "worker goroutines across -defense list entries (0 = all CPUs, 1 = serial)")
	telemetryDir := flag.String("telemetry", "", "directory to write run telemetry CSV/JSONL into")
	timelineFile := flag.String("timeline", "", "write a Chrome trace-event / Perfetto JSON timeline to this file")
	timelineWindows := flag.Int("timeline-windows", 0, "flight-recorder mode: keep only the last K tREFI windows (0 = full trace; first detection pins the ring)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	list := flag.Bool("list", false, "list workloads and defenses, then exit")
	flag.Parse()

	if *list {
		fmt.Println("defenses: " + strings.Join(experiments.AllDefenses(), ", "))
		fmt.Println("workloads: " + strings.Join(experiments.AllWorkloads(), ", "))
		fmt.Println("SPEC apps: " + strings.Join(experiments.AllSPECApps(), ", "))
		return
	}

	if *requests <= 0 {
		fail(fmt.Errorf("-requests %d: want > 0", *requests))
	}
	s, err := experiments.ScaleByName(*scaleFlag)
	if err != nil {
		fail(err)
	}
	s.Cores = *cores
	s.Seed = *seed
	cfg := s.MachineConfig()

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
	buildW := func() (workload.Workload, error) { return s.NewWorkload(*wname, *hammerRow) }
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

	col, err := probe.NewCollector(*telemetryDir != "", *timelineFile != "", *timelineWindows)
	if err != nil {
		fail(err)
	}

	dnames := strings.Split(*dname, ",")
	col.Start(len(dnames))
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
		m, err := sim.NewMachine(cfg, def, w)
		if err != nil {
			return "", err
		}
		// A nil collector builds a nil recorder: the run is detached.
		rec := col.NewRecorder()
		m.SetRecorder(rec)
		res, err := m.Run(sim.Limits{MaxRequests: *requests, MaxTime: 30 * clock.Second})
		if err != nil {
			return "", err
		}
		col.Record(i, probe.CellLabel{Workload: res.Workload, Defense: name}, rec)
		return report(res), nil
	})
	if err != nil {
		fail(err)
	}
	paths, err := col.Export(*telemetryDir, "run", *timelineFile)
	if err != nil {
		fail(err)
	}
	for _, p := range paths {
		fmt.Fprintf(os.Stderr, "twicesim: wrote %s\n", p)
	}
	for i, r := range reports {
		if i > 0 {
			fmt.Println(strings.Repeat("-", 60))
		}
		fmt.Print(r)
	}
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

func fail(err error) {
	fmt.Fprintln(os.Stderr, "twicesim:", err)
	os.Exit(1)
}
