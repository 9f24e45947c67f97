package probe

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// collectTwoCells builds a collector with two hand-filled cells.
func collectTwoCells() *Collector {
	col := &Collector{}
	col.Start(2)

	a := col.NewRecorder()
	a.Attach(1, 1, 100)
	a.AddGauge("requests_served", func() int64 { return 42 })
	a.TableTick(0, 5, 2, 70)
	a.MaybeSample(100)
	col.Record(0, CellLabel{Workload: "S3", Defense: "TWiCe"}, a)

	b := col.NewRecorder()
	b.Attach(1, 1, 0)
	b.ACT(0, 5)
	col.Record(1, CellLabel{Workload: "S3", Defense: "none"}, b)
	return col
}

func TestCollectorWriteCSV(t *testing.T) {
	col := collectTwoCells()
	if col.Cells() != 2 {
		t.Fatalf("cells = %d, want 2", col.Cells())
	}
	var buf bytes.Buffer
	if err := col.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "cell,workload,defense,series,t_ps,bank,value\n" +
		"0,S3,TWiCe,twice_occupancy,70,0,5\n" +
		"0,S3,TWiCe,twice_pruned,70,0,2\n" +
		"0,S3,TWiCe,requests_served,100,-1,42\n"
	if got := buf.String(); got != want {
		t.Errorf("CSV =\n%s\nwant\n%s", got, want)
	}
}

func TestCollectorWriteJSONL(t *testing.T) {
	col := collectTwoCells()
	var buf bytes.Buffer
	if err := col.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	// Per cell: one header line + four histogram lines.
	if len(lines) != 10 {
		t.Fatalf("got %d JSONL lines, want 10:\n%s", len(lines), buf.String())
	}
	var head struct {
		Cell     int    `json:"cell"`
		Workload string `json:"workload"`
		Defense  string `json:"defense"`
		Events   struct {
			TableTicks int64 `json:"table_ticks"`
		} `json:"events"`
		MaxOccupancy int `json:"max_occupancy"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &head); err != nil {
		t.Fatal(err)
	}
	if head.Workload != "S3" || head.Defense != "TWiCe" || head.Events.TableTicks != 1 || head.MaxOccupancy != 5 {
		t.Errorf("header line = %+v", head)
	}
	var hist struct {
		Cell   int     `json:"cell"`
		Hist   string  `json:"hist"`
		Bounds []int64 `json:"bounds"`
		Counts []int64 `json:"counts"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Hist != "latency_ps" {
		t.Errorf("first histogram = %q, want latency_ps (fixed order)", hist.Hist)
	}
	if len(hist.Counts) != len(hist.Bounds)+1 {
		t.Errorf("counts has %d buckets for %d bounds, want bounds+1 (overflow)", len(hist.Counts), len(hist.Bounds))
	}
}

func TestExportDeterminism(t *testing.T) {
	// Identical recordings must serialize to identical bytes, every time.
	render := func() (string, string) {
		col := collectTwoCells()
		var c, j bytes.Buffer
		if err := col.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		if err := col.WriteJSONL(&j); err != nil {
			t.Fatal(err)
		}
		return c.String(), j.String()
	}
	c1, j1 := render()
	for i := 0; i < 10; i++ {
		if c2, j2 := render(); c2 != c1 || j2 != j1 {
			t.Fatal("export bytes differ between identical recordings")
		}
	}
}

// TestNewCollectorRejectsNegativeWindows pins the -timeline-windows check
// all three commands share: K < 0 is an error naming the flag, whatever
// outputs are asked for (the ring would otherwise treat it as "off" and
// write a full trace); no requested output means no collector at all.
func TestNewCollectorRejectsNegativeWindows(t *testing.T) {
	for _, c := range []struct{ telemetry, trace bool }{{true, true}, {false, true}, {false, false}} {
		col, err := NewCollector(c.telemetry, c.trace, -3)
		if err == nil || col != nil || !strings.Contains(err.Error(), "-timeline-windows") {
			t.Errorf("%+v, K=-3: got %v, %v; want an error naming the flag", c, col, err)
		}
	}
	if col, err := NewCollector(false, false, 0); err != nil || col != nil {
		t.Errorf("no outputs: got %v, %v; want a nil collector", col, err)
	}
	col, err := NewCollector(false, true, 0)
	if err != nil || col == nil || col.NewRecorder().trace == nil {
		t.Fatalf("trace-only K=0: got %+v, %v; want a tracing collector", col, err)
	}
}

// TestCollectorExport checks that Export writes the requested outputs —
// exactly the writers' bytes — creating missing parent directories, that a
// nil collector writes nothing, and that an uncreatable path is an error.
func TestCollectorExport(t *testing.T) {
	col := collectTwoCells()
	dir := t.TempDir()
	base := filepath.Join(dir, "tel", "fig7b")
	trace := filepath.Join(dir, "tl", "deep", "fig7b.trace.json")
	paths, err := col.Export(filepath.Dir(base), "fig7b", trace)
	want := []string{base + ".csv", base + ".jsonl", trace}
	if err != nil || !reflect.DeepEqual(paths, want) {
		t.Fatalf("Export = %v, %v; want %v", paths, err, want)
	}
	for i, write := range []func(io.Writer) error{col.WriteCSV, col.WriteJSONL, col.WriteTrace} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(want[i]); err != nil || !bytes.Equal(got, buf.Bytes()) {
			t.Errorf("%s differs from the writer's output (%v)", want[i], err)
		}
	}
	if paths, err := col.Export("", "run", filepath.Join(dir, "only.trace.json")); err != nil || len(paths) != 1 {
		t.Errorf("trace-only export wrote %v, %v", paths, err)
	}
	if _, err := col.Export(want[0], "run", ""); err == nil {
		t.Error("export under a regular file succeeded")
	}
	var none *Collector
	none.Start(2)
	none.Record(0, CellLabel{}, NewRecorder())
	if rec := none.NewRecorder(); rec != nil {
		t.Errorf("nil collector built recorder %v", rec)
	}
	if paths, err := none.Export(filepath.Join(dir, "x"), "run", filepath.Join(dir, "x.json")); err != nil || len(paths) != 0 {
		t.Errorf("nil collector exported %v, %v", paths, err)
	}
}
