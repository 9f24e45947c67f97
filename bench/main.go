// Command bench is the repository benchmark: host time, memory and set-up
// cost of the simulator on four workloads, every result checked against
// golden digests. README.md explains the workloads and metrics.
//
// From the repository root:
//
//	sh bench/run.sh --workload s3-attack --seed 1 --seconds 26 --trace 0
//	sh bench/run.sh -out set1.json              # all four workloads, end to end
//	sh bench/run.sh -layers -out layers.json    # all four, per-layer costs
//	sh bench/run.sh -compare set1.json set2.json
//
// run.sh builds this module into .bench_build and runs it; inside bench/,
// `go run . <flags>` does the same with the default Go caches.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/detutil"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run; empty runs all four as one set")
	seed := flag.Int64("seed", 1, "seed every workload input is generated from")
	seconds := flag.Float64("seconds", 26, "end-to-end measuring time per workload (at least 4 child processes run)")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced per-layer phase")
	layers := flag.Bool("layers", false, "same as -trace 1")
	out := flag.String("out", "", "write the result file (host stamps, medians, quartiles) here")
	spansOut := flag.String("spans-out", filepath.Join(".bench_build", "spans"), "with -trace 1, write each workload's Chrome trace to <this>-<workload>.json")
	doCompare := flag.Bool("compare", false, "compare two result files: -compare A.json B.json; exits 1 on a regression beyond a bound")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark declaration holding the bounds -compare applies")
	goldenOut := flag.String("write-golden", "", "recompute the golden digests for seeds 1 and 2 and write them to this file")
	child := flag.Bool("child", false, "run one measuring child process (used by the end-to-end phase)")
	flag.Parse()

	switch {
	case *doCompare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants two result files")
			return 2
		}
		var spec benchSpec
		var a, b resultFile
		for _, f := range []struct {
			path string
			v    any
		}{{*specPath, &spec}, {flag.Arg(0), &a}, {flag.Arg(1), &b}} {
			if err := readJSON(f.path, f.v); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
		}
		if compare(&spec, &a, &b, os.Stdout) {
			return 1
		}
		return 0
	case *goldenOut != "":
		if err := writeGolden(*goldenOut); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	case *child:
		p, err := newPanel(*name, *seed, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if err := json.NewEncoder(os.Stdout).Encode(runChild(p)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}

	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	traced := *layers || *traceMode == 1
	names := workloadNames
	if *name != "" {
		if _, err := newPanel(*name, *seed, 1); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		names = []string{*name}
	}
	file := resultFile{Phase: "end_to_end"}
	if traced {
		file.Phase = "layers"
	}
	start := time.Now()
	var hostRefs []float64
	for _, n := range names {
		var wr *workloadResult
		var err error
		if traced {
			hostRefs = append(hostRefs, hostRef())
			spans := ""
			if *spansOut != "" {
				spans = *spansOut + "-" + n + ".json"
			}
			wr, err = runLayers(n, *seed, 1, spans)
		} else {
			wr, err = runE2E(n, *seed, *seconds, &hostRefs)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printResult(os.Stdout, wr)
		file.Workloads = append(file.Workloads, wr)
	}
	file.Host = stamps(time.Since(start), hostRefs)
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s, revision %s, set wall %.1f s, host_ref_s %.4f [%.4f, %.4f]\n",
		file.Host.NProc, file.Host.GOMAXPROCS, file.Host.GoVersion, short(file.Host.Revision),
		file.Host.SetWallS, file.Host.HostRef.Value, file.Host.HostRef.Q1, file.Host.HostRef.Q3)
	if file.Host.Warning != "" {
		fmt.Fprintln(os.Stderr, "bench: warning:", file.Host.Warning)
	}
	if *out != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = writeFile(*out, append(b, '\n'))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if len(names) == 1 {
		if err := printSummaryLine(os.Stdout, file.Workloads[0]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return 0
}

// printResult prints one workload's result, a metric per line.
func printResult(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "%s seed %d: %d reps attempted, %d failed, digest %.12s\n", r.Workload, r.Seed, r.Attempted, r.Failed, r.Digest)
	defs := endToEnd
	if _, ok := r.Metrics[perLayer[0].name]; ok {
		defs = perLayer
	}
	for _, d := range defs {
		m := r.Metrics[d.name]
		fmt.Fprintf(w, "  %-28s %14.6g %-12s", d.name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " median of %d, q1 %.6g, q3 %.6g", m.N, m.Q1, m.Q3)
		}
		fmt.Fprintln(w)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", r.Workload, e)
	}
}

// printSummaryLine prints the one-line JSON summary: correctness, reps
// attempted and failed, and every metric as {value, unit}.
func printSummaryLine(w io.Writer, r *workloadResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, name := range detutil.SortedKeys(r.Metrics) {
		m := r.Metrics[name]
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeFile writes data to path, creating its directory.
func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
