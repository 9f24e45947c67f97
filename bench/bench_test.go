package main

import (
	"io"
	"slices"
	"testing"

	"repro/internal/sim"
)

// smokeFrac runs every workload at about 1% of its benchmark size.
const smokeFrac = 0.01

func loadSpec(t *testing.T) *benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	return &spec
}

// TestSmoke runs every workload small, untraced and traced. runLayers fails
// a workload when the traced digest differs from the untraced one, when the
// defense replay does not reproduce the run's detections and ARR requests,
// or when a timing replay Record* call returns an error.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			if name == "fig7b-grid" && testing.Short() {
				t.Skip("the grid's S2 cells keep their full budget at any size")
			}
			p, err := newPanel(name, 1, smokeFrac)
			if err != nil {
				t.Fatal(err)
			}
			untraced, err := p.rep(sim.NewCellRunner(p.cfg), nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runLayers(name, 1, smokeFrac, "")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced phase failed: %v", res.Errors)
			}
			if res.Digest != untraced {
				t.Fatalf("layers digest %s, untraced rep %s", res.Digest, untraced)
			}
			if res.Metrics["timing.cmds_per_req"].Value == 0 {
				t.Error("the timing replay replayed no commands")
			}
			if name == "s3-attack" && res.Metrics["defense.mitigations_per_act"].Value == 0 {
				t.Error("the attack requested no mitigation, so the defense replay checked nothing")
			}
			for _, m := range spec.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: emitted %+v (present %v), BENCHMARK.json unit %q", m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("emitted %d per-layer metrics, BENCHMARK.json declares %d", len(res.Metrics), len(spec.PerLayer))
			}
		})
	}
}

// TestEndToEndMetrics runs one measuring child in process and checks that
// the aggregate carries every end-to-end metric BENCHMARK.json declares.
func TestEndToEndMetrics(t *testing.T) {
	spec := loadSpec(t)
	p, err := newPanel("s3-attack", 1, smokeFrac)
	if err != nil {
		t.Fatal(err)
	}
	res := aggregate(p, []childReport{runChild(p)})
	if !res.Correct || res.Attempted != p.reps {
		t.Fatalf("child run: correct %v, %d of %d reps failed: %v", res.Correct, res.Failed, res.Attempted, res.Errors)
	}
	for _, m := range spec.EndToEnd {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || got.Value <= 0 {
			t.Errorf("end-to-end metric %s: emitted %+v (present %v), BENCHMARK.json unit %q", m.Name, got, ok, m.Unit)
		}
	}
	if len(res.Metrics) != len(spec.EndToEnd) {
		t.Errorf("emitted %d end-to-end metrics, BENCHMARK.json declares %d", len(res.Metrics), len(spec.EndToEnd))
	}
}

// TestDefenseReplayCatchesDivergence replays an attack stream with its
// activations removed: the replay must then disagree with the run.
func TestDefenseReplayCatchesDivergence(t *testing.T) {
	p, err := newPanel("s3-attack", 1, smokeFrac)
	if err != nil {
		t.Fatal(err)
	}
	var capt capture
	tr := newTracer()
	c := p.cells[0]
	res, err := p.runCell(sim.NewCellRunner(p.cfg), c, tr.wrap(&capt, p.cfg.DRAM.RowsPerBank))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.replayDefense(c, &capt, res, tr); err != nil {
		t.Fatalf("faithful replay: %v", err)
	}
	capt.events = slices.DeleteFunc(capt.events, func(e devEvent) bool { return e.kind == evACT })
	if _, err := p.replayDefense(c, &capt, res, tr); err == nil {
		t.Fatal("replay of a stream without activations matched the run")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	spec := loadSpec(t)
	file := func(reqPerS, failFrac float64) *resultFile {
		w := &workloadResult{Workload: "s3-attack", FailFrac: failFrac, Metrics: map[string]metric{}}
		for _, m := range spec.EndToEnd {
			w.Metrics[m.Name] = metric{Value: 1, Unit: m.Unit}
		}
		w.Metrics["req_per_s"] = metric{Value: reqPerS, Unit: "requests/s"}
		return &resultFile{Workloads: []*workloadResult{w}}
	}
	base := file(1000, 0)
	for _, tc := range []struct {
		name string
		b    *resultFile
		want bool
	}{
		{"same", file(1000, 0), false},
		{"faster", file(1500, 0), false},
		{"within bound", file(995, 0), false},
		{"slower", file(500, 0), true},
		{"failures", file(1000, 0.5), true},
		{"missing workload", &resultFile{}, true},
	} {
		if got := compare(spec, base, tc.b, io.Discard); got != tc.want {
			t.Errorf("%s: compare reported a regression: %v, want %v", tc.name, got, tc.want)
		}
	}
}
