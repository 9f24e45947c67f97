// Command paperrepro regenerates every table and figure of the TWiCe paper's
// evaluation and prints them side by side with the values the paper reports.
//
// Usage:
//
//	paperrepro [-scale quick|paper] [-only table1|table2|table3|table4|fig7a|fig7b|area]
//	           [-parallel N] [-progress] [-telemetry dir]
//	           [-cpuprofile out.pprof] [-memprofile out.pprof]
//
// The quick scale (default) shrinks the refresh window and every threshold
// 64×, preserving the reported ratios while finishing in minutes; the paper
// scale runs the exact Table 2 parameters and takes correspondingly longer.
// -parallel runs the independent (workload, defense) cells of each grid on
// that many workers (0, the default, uses every CPU; 1 forces serial); output
// is byte-identical at any worker count. -progress reports completed/total
// cells and an ETA on stderr as grid cells finish. -telemetry writes each
// grid experiment's per-cell event totals, histograms, and occupancy series
// as <dir>/<experiment>.csv and .jsonl — byte-identical at any worker count.
// -timeline writes each grid experiment's simulated-time schedule as
// <dir>/<experiment>.trace.json (Chrome trace-event format, one process per
// grid cell × channel; open at ui.perfetto.dev), also byte-identical at any
// worker count; -timeline-windows K keeps only the last K tREFI windows per
// cell.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/probe"
)

// experimentNames lists the experiments -only can select.
var experimentNames = []string{"table1", "table2", "table3", "table4", "fig7a", "fig7b", "area"}

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or paper")
	only := flag.String("only", "", "run a single experiment: "+strings.Join(experimentNames, ","))
	requests := flag.Int64("requests", 0, "override demand requests per cell (0 = the scale's budget)")
	csvDir := flag.String("csv", "", "directory to also write fig7a.csv / fig7b.csv into")
	par := flag.Int("parallel", 0, "worker goroutines per experiment grid (0 = all CPUs, 1 = serial)")
	progressFlag := flag.Bool("progress", false, "report completed/total grid cells and ETA on stderr")
	telemetryDir := flag.String("telemetry", "", "directory to write per-experiment telemetry CSV/JSONL into")
	timelineDir := flag.String("timeline", "", "directory to write per-experiment Chrome trace-event timelines into")
	timelineWindows := flag.Int("timeline-windows", 0, "flight-recorder mode: keep only the last K tREFI windows per cell (0 = full trace)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if err := checkFlags(*only, *requests); err != nil {
		fail(err)
	}

	s, err := experiments.ScaleByName(*scaleFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperrepro: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}
	if *requests > 0 {
		s.Requests = *requests
	}
	s.Parallel = *par
	col, err := probe.NewCollector(*telemetryDir != "", *timelineDir != "", *timelineWindows)
	if err != nil {
		fail(err)
	}
	s.Telemetry = col

	// instrument points one grid experiment's progress hook at the stderr
	// meter; the returned finish func ends the meter line. Telemetry and
	// trace attachment are independent — they ride on s.Telemetry.
	instrument := func(s *experiments.Scale, label string) func() {
		if !*progressFlag {
			return func() {}
		}
		p := probe.NewProgress(os.Stderr, label, time.Now)
		s.Progress = p.Update
		return p.Finish
	}
	// export writes the collector's per-cell telemetry and trace after one
	// grid experiment (no-op without -telemetry and -timeline). runGrid
	// restarts the collector per experiment, so each file holds exactly one
	// experiment.
	export := func(name string) {
		var tracePath string
		if *timelineDir != "" {
			tracePath = filepath.Join(*timelineDir, name+".trace.json")
		}
		paths, err := col.Export(*telemetryDir, name, tracePath)
		if err != nil {
			fail(err)
		}
		for _, p := range paths {
			fmt.Fprintf(os.Stderr, "(wrote %s)\n", p)
		}
	}

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

	want := func(name string) bool { return *only == "" || *only == name }
	fmt.Printf("TWiCe reproduction — scale %s (thRH=%d, tREFW=%v, %d requests/cell)\n\n",
		s.Name, s.ThRH, s.TREFW, s.Requests)

	if want("table2") {
		fmt.Println("== Table 2: TWiCe parameter derivation ==")
		d := experiments.Table2(s)
		fmt.Println(d)
		fmt.Println("paper (at paper scale): thRH=32768 thPI=4 maxact=165 maxlife=8192 bound=553")
		fmt.Println()
	}
	if want("table4") {
		fmt.Println("== Table 4: simulated system ==")
		fmt.Print(experiments.Table4(s))
		fmt.Println()
	}
	if want("table3") {
		fmt.Println("== Table 3 / §7.1: energy overheads ==")
		m := experiments.Table3()
		fmt.Printf("constants: fa count %v/%.3fnJ, fa update %v/%.3fnJ, pa count %v/%.3fnJ, DRAM ACT+PRE %v/%.2fnJ\n",
			m.FACount.Time, m.FACount.NanoJ, m.FAUpdate.Time, m.FAUpdate.NanoJ,
			m.PACountPreferred.Time, m.PACountPreferred.NanoJ, m.DRAMActPre.Time, m.DRAMActPre.NanoJ)
		bd, err := experiments.Table3Measured(s)
		if err != nil {
			fail(err)
		}
		fmt.Printf("measured over an S3 run: %s\n", bd)
		fmt.Println("paper: count < 0.7% of ACT/PRE energy, update < 0.5% of refresh energy")
		fmt.Println()
	}
	if want("area") {
		fmt.Println("== §6.2/§7.1: table storage ==")
		a := experiments.AreaReport(s)
		fmt.Printf("%d entries (%d wide ×%db + %d narrow ×%db) = %d B/table (+%d B SB) = %.2f KB per GB bank\n",
			a.Entries, a.WideEntries, a.BitsPerWide, a.NarrowEntries, a.BitsPerNarrow,
			a.TableBytes, a.SBIndicatorBytes, a.BytesPerGB/1024)
		fmt.Println("paper: 553 entries (429 wide + 124 narrow), 2.71 KB per 1 GB bank")
		fmt.Println()
	}
	if want("fig7b") {
		fmt.Println("== Figure 7(b): synthetic workloads ==")
		finish := instrument(&s, "fig7b")
		cells, err := experiments.Figure7b(s)
		finish()
		if err != nil {
			fail(err)
		}
		export("fig7b")
		writeCSV(*csvDir, "fig7b.csv", cells)
		fmt.Print(experiments.RenderCells("additional ACTs, synthetics", cells))
		fmt.Println("paper: TWiCe 0/0/0.006%; PARA-p ≈ p; CBT-256 up to 4.82% (S2), 0.39% (S3)")
		fmt.Println()
	}
	if want("fig7a") {
		fmt.Println("== Figure 7(a): multi-programmed and multi-threaded workloads ==")
		fmt.Printf("(running %d SPEC apps + 6 workloads × %d defenses; this is the long one)\n",
			len(s.SPECApps), len(experiments.DefenseNames()))
		finish := instrument(&s, "fig7a")
		cells, err := experiments.Figure7a(s)
		finish()
		if err != nil {
			fail(err)
		}
		export("fig7a")
		writeCSV(*csvDir, "fig7a.csv", cells)
		fmt.Print(experiments.RenderCells("additional ACTs, normal workloads", cells))
		fmt.Println("paper: TWiCe 0 everywhere; PARA ≈ p; CBT-256 ≈ 0.05% average")
		fmt.Println()
	}
	if want("table1") {
		fmt.Println("== Table 1: qualitative comparison, quantified ==")
		finish := instrument(&s, "table1")
		rows, err := experiments.Table1(s)
		finish()
		if err != nil {
			fail(err)
		}
		export("table1")
		fmt.Print(experiments.RenderTable1(rows))
		fmt.Println("paper: CRA/CBT high adversarial drop; PARA small but undetecting; TWiCe smallest + detects")
		fmt.Println()
	}
}

// checkFlags rejects an -only name outside experimentNames and a negative
// -requests, so a mistyped run fails before it prints anything.
func checkFlags(only string, requests int64) error {
	if only != "" && !slices.Contains(experimentNames, only) {
		return fmt.Errorf("-only %s: want one of %s", only, strings.Join(experimentNames, ","))
	}
	if requests < 0 {
		return fmt.Errorf("-requests %d: want >= 0 (0 keeps the scale's budget)", requests)
	}
	return nil
}

// writeCSV exports cells into dir/name when a CSV directory was given,
// creating the directory like the telemetry and trace exports do.
func writeCSV(dir, name string, cells []experiments.Cell) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fail(err)
	}
	if err := experiments.WriteCellsCSV(f, cells); err != nil {
		_ = f.Close()
		fail(err)
	}
	// Close errors on a written file matter: they can hide lost rows.
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("(wrote %s/%s)\n", dir, name)
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
	fmt.Fprintln(os.Stderr, "paperrepro:", err)
	os.Exit(1)
}
