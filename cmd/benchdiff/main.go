// Command benchdiff compares two or more perfbench result files
// (BENCH_*.json) and prints a regression table.
//
// Usage:
//
//	benchdiff [-threshold pct] BENCH_5.json BENCH_6.json [more.json...]
//
// The first file is the baseline; every metric column after it carries the
// later file's value, and the final Δ% column compares the LAST file against
// the baseline (negative is faster/smaller for lower-is-better rows, which
// are everything except speedups). Files from older perfbench versions that
// lack a section simply print "-" for its rows — the diff never fails on a
// missing metric. Rows whose regression exceeds -threshold (percent) are
// flagged with "!"; with -threshold 0 (the default) the flag column still
// prints but the exit status stays 0, so verify.sh can smoke the tool
// without pinning hardware-dependent numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// runBench mirrors perfbench's per-benchmark block. Zero values mean the
// block was absent; presence is tracked by the pointer in benchFile.
type runBench struct {
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	NsPerRequest float64 `json:"ns_per_request"`
}

type schedRow struct {
	QueueDepth    int     `json:"queue_depth"`
	NsPerStep     float64 `json:"ns_per_step"`
	AllocsPerStep float64 `json:"allocs_per_step"`
}

type gridBench struct {
	Cells       int     `json:"cells"`
	Workers     int     `json:"workers"`
	SerialCPS   float64 `json:"serial_cells_per_sec"`
	ParallelCPS float64 `json:"parallel_cells_per_sec"`
	Speedup     float64 `json:"speedup"`
}

// benchFile is a tolerant superset of every perfbench output version:
// unknown fields (such as older files' channel_scaling legs) are ignored,
// missing sections stay nil.
type benchFile struct {
	GOMAXPROCS         int        `json:"gomaxprocs"`
	SimRunS3           *runBench  `json:"sim_run_s3"`
	SimRunS3Reused     *runBench  `json:"sim_run_s3_reused"`
	SimRunS3Probed     *runBench  `json:"sim_run_s3_probed"`
	FreshOverReused    float64    `json:"fresh_over_reused_bytes"`
	ProbedOverDetached float64    `json:"probed_over_detached_ns"`
	SchedulerStep      []schedRow `json:"scheduler_step"`
	Figure7bGrid       *gridBench `json:"figure7b_grid"`
}

// metric is one table row: a value (or absence) per input file.
type metric struct {
	name         string
	vals         []float64
	ok           []bool
	higherBetter bool // speedups: a drop is the regression
}

func main() {
	threshold := flag.Float64("threshold", 0, "exit 1 when any metric regresses by more than this percent (0 = report only)")
	flag.Parse()
	paths := flag.Args()
	if len(paths) < 2 {
		fmt.Fprintln(os.Stderr, "benchdiff: need at least two BENCH_*.json files")
		os.Exit(2)
	}
	files := make([]benchFile, len(paths))
	for i, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			fail(err)
		}
		if err := json.Unmarshal(raw, &files[i]); err != nil {
			fail(fmt.Errorf("%s: %w", p, err))
		}
	}

	rows := collect(files)
	names := make([]string, len(paths))
	for i, p := range paths {
		names[i] = strings.TrimSuffix(filepath.Base(p), ".json")
	}

	fmt.Printf("benchdiff: %s (baseline) vs %s\n", names[0], strings.Join(names[1:], ", "))
	for i, f := range files {
		fmt.Printf("  %s: gomaxprocs=%d\n", names[i], f.GOMAXPROCS)
	}
	fmt.Println()

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "metric\t%s\tΔ%% (last vs base)\t\n", strings.Join(names, "\t"))
	regressions := 0
	for _, m := range rows {
		cells := make([]string, len(m.vals))
		for i := range m.vals {
			if m.ok[i] {
				cells[i] = fmtVal(m.vals[i])
			} else {
				cells[i] = "-"
			}
		}
		delta, flag := deltaPct(m)
		if flag && *threshold > 0 && math.Abs(mustDelta(m)) > *threshold {
			regressions++
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t\n", m.name, strings.Join(cells, "\t"), delta)
	}
	if err := w.Flush(); err != nil {
		fail(err)
	}
	if *threshold > 0 && regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d metric(s) regressed by more than %.1f%%\n", regressions, *threshold)
		os.Exit(1)
	}
}

// collect flattens every known metric across the input files into table rows.
func collect(files []benchFile) []metric {
	n := len(files)
	var rows []metric
	add := func(name string, higherBetter bool, get func(f benchFile) (float64, bool)) {
		m := metric{name: name, vals: make([]float64, n), ok: make([]bool, n), higherBetter: higherBetter}
		any := false
		for i, f := range files {
			m.vals[i], m.ok[i] = get(f)
			any = any || m.ok[i]
		}
		if any {
			rows = append(rows, m)
		}
	}
	run := func(label string, get func(f benchFile) *runBench) {
		add(label+" ns/op", false, func(f benchFile) (float64, bool) {
			if b := get(f); b != nil {
				return b.NsPerOp, true
			}
			return 0, false
		})
		add(label+" allocs/op", false, func(f benchFile) (float64, bool) {
			if b := get(f); b != nil {
				return b.AllocsPerOp, true
			}
			return 0, false
		})
		add(label+" bytes/op", false, func(f benchFile) (float64, bool) {
			if b := get(f); b != nil {
				return b.BytesPerOp, true
			}
			return 0, false
		})
		add(label+" ns/request", false, func(f benchFile) (float64, bool) {
			if b := get(f); b != nil && b.NsPerRequest > 0 {
				return b.NsPerRequest, true
			}
			return 0, false
		})
	}
	run("sim_run_s3", func(f benchFile) *runBench { return f.SimRunS3 })
	run("sim_run_s3_reused", func(f benchFile) *runBench { return f.SimRunS3Reused })
	run("sim_run_s3_probed", func(f benchFile) *runBench { return f.SimRunS3Probed })
	add("fresh/reused bytes ratio", false, func(f benchFile) (float64, bool) {
		return f.FreshOverReused, f.FreshOverReused != 0
	})
	add("probed/detached ns ratio", false, func(f benchFile) (float64, bool) {
		return f.ProbedOverDetached, f.ProbedOverDetached != 0
	})

	// Scheduler rows are keyed by queue depth; union the depths so a file
	// that dropped or added a depth still lines up.
	for _, depth := range unionInts(files, func(f benchFile) []int {
		ds := make([]int, len(f.SchedulerStep))
		for i, r := range f.SchedulerStep {
			ds[i] = r.QueueDepth
		}
		return ds
	}) {
		depth := depth
		add(fmt.Sprintf("scheduler q=%d ns/step", depth), false, func(f benchFile) (float64, bool) {
			for _, r := range f.SchedulerStep {
				if r.QueueDepth == depth {
					return r.NsPerStep, true
				}
			}
			return 0, false
		})
	}

	add("fig7b grid speedup", true, func(f benchFile) (float64, bool) {
		if f.Figure7bGrid != nil {
			return f.Figure7bGrid.Speedup, true
		}
		return 0, false
	})
	add("fig7b serial cells/s", true, func(f benchFile) (float64, bool) {
		if f.Figure7bGrid != nil {
			return f.Figure7bGrid.SerialCPS, true
		}
		return 0, false
	})
	return rows
}

// unionInts collects the ordered union of per-file int lists (first-seen
// order, which matches perfbench's fixed depth list).
func unionInts(files []benchFile, get func(f benchFile) []int) []int {
	var out []int
	seen := map[int]bool{}
	for _, f := range files {
		for _, v := range get(f) {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// deltaPct renders the last-vs-baseline change for one row and reports
// whether it moved in the regression direction.
func deltaPct(m metric) (string, bool) {
	first, last := 0, len(m.vals)-1
	if !m.ok[first] || !m.ok[last] || m.vals[first] == 0 {
		return "-", false
	}
	d := (m.vals[last] - m.vals[first]) / m.vals[first] * 100
	worse := d > 0
	if m.higherBetter {
		worse = d < 0
	}
	mark := ""
	if worse && math.Abs(d) >= 2 { // sub-2% wobble is benchmark noise
		mark = " !"
	}
	return fmt.Sprintf("%+.1f%%%s", d, mark), worse
}

// mustDelta returns the raw last-vs-baseline percent for threshold checks;
// callers only reach it after deltaPct reported a comparable row.
func mustDelta(m metric) float64 {
	first, last := 0, len(m.vals)-1
	return (m.vals[last] - m.vals[first]) / m.vals[first] * 100
}

// fmtVal prints large counts as integers and ratios with sensible precision.
func fmtVal(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
