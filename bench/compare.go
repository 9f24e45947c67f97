package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compare prints, for every workload of a and every end-to-end metric of
// the spec, both medians with their quartiles and the change against the
// metric's bound. It reports whether any bound is breached, any workload or
// metric is missing from b, or b's failure fraction is higher than a's.
func compare(spec *benchSpec, a, b *resultFile, w io.Writer) bool {
	breached := false
	fmt.Fprintf(w, "A: %s nproc %d, host_ref_s %.4f   B: %s nproc %d, host_ref_s %.4f\n",
		short(a.Host.Revision), a.Host.NProc, a.Host.HostRef.Value, short(b.Host.Revision), b.Host.NProc, b.Host.HostRef.Value)
	fmt.Fprintf(w, "%-11s %-13s %-46s %-46s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb := findWorkload(b, wa.Workload)
		if wb == nil {
			fmt.Fprintf(w, "%-11s missing from B\n", wa.Workload)
			breached = true
			continue
		}
		for _, m := range spec.EndToEnd {
			ma, okA := wa.Metrics[m.Name]
			mb, okB := wb.Metrics[m.Name]
			if !okA || !okB || ma.Value == 0 {
				fmt.Fprintf(w, "%-11s %-13s missing or zero\n", wa.Workload, m.Name)
				breached = true
				continue
			}
			change := (mb.Value - ma.Value) / ma.Value
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "REGRESSION"
				breached = true
			}
			fmt.Fprintf(w, "%-11s %-13s %-46s %-46s %+7.2f%% %5.0f%%  %s\n", wa.Workload, m.Name,
				quart(ma), quart(mb), 100*change, 100*m.Bound, verdict)
		}
		verdict := "ok"
		if wb.FailFrac > wa.FailFrac {
			verdict = "REGRESSION"
			breached = true
		}
		fmt.Fprintf(w, "%-11s %-13s %-46.4f %-46.4f %8s %6s  %s\n", wa.Workload, "fail_frac", wa.FailFrac, wb.FailFrac, "", "", verdict)
	}
	return breached
}

func findWorkload(f *resultFile, name string) *workloadResult {
	for _, w := range f.Workloads {
		if w.Workload == name {
			return w
		}
	}
	return nil
}

func quart(m metric) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s", m.Value, m.Q1, m.Q3, m.Unit)
}

func short(rev string) string {
	if len(rev) > 12 {
		return rev[:12]
	}
	return rev
}
