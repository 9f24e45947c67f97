package probe

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// collectTwoCells builds a collector with two hand-filled cells.
func collectTwoCells() *Collector {
	col := &Collector{}
	col.Start(2)

	a := NewRecorder(Config{Banks: 1, SampleEvery: 100})
	a.AddGauge("requests_served", func() int64 { return 42 })
	a.TableTick(0, 5, 2, 70)
	a.MaybeSample(100)
	col.Record(0, CellLabel{Workload: "S3", Defense: "TWiCe"}, a.Snapshot())

	b := NewRecorder(Config{Banks: 1})
	b.ACT(0, 5)
	col.Record(1, CellLabel{Workload: "S3", Defense: "none"}, b.Snapshot())
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
