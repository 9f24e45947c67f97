package probe

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/stats"
)

// HistogramSnapshot is an exportable copy of one fixed-bucket histogram.
// Counts has one trailing overflow bucket beyond Bounds.
type HistogramSnapshot struct {
	Name   string  `json:"name"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Total  int64   `json:"total"`
	Mean   float64 `json:"mean"`
	Max    int64   `json:"max"`
}

func histSnapshot(name string, h *stats.Histogram) HistogramSnapshot {
	return HistogramSnapshot{
		Name:   name,
		Bounds: append([]int64(nil), h.Bounds()...),
		Counts: append([]int64(nil), h.Counts()...),
		Total:  h.Count(),
		Mean:   h.Mean(),
		Max:    h.Max(),
	}
}

// GaugeSeries is one named gauge's recorded samples.
type GaugeSeries struct {
	Name    string       `json:"name"`
	Samples []GaugePoint `json:"samples"`
}

// Snapshot is an immutable copy of a recorder's telemetry, detached from the
// machine so it can be kept in a Collector and exported after the machine
// moves on to the next cell. Field order (not map iteration) drives every export,
// so identical runs serialize to identical bytes.
type Snapshot struct {
	Events         EventTotals
	MaxOccupancy   int
	DroppedSamples int64
	Histograms     []HistogramSnapshot // fixed order: latency_ps, queue_depth, inter_arr_ps, bank_queue_depth
	Occupancy      []OccSample
	Gauges         []GaugeSeries // registration order
}

// Snapshot copies the recorder's current state.
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		Events:         r.totals,
		MaxOccupancy:   r.maxOcc,
		DroppedSamples: r.dropped,
		Histograms: []HistogramSnapshot{
			histSnapshot("latency_ps", r.latency),
			histSnapshot("queue_depth", r.depth),
			histSnapshot("inter_arr_ps", r.interARR),
			histSnapshot("bank_queue_depth", r.bankDepth),
		},
		Occupancy: append([]OccSample(nil), r.occ...),
	}
	for _, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSeries{
			Name:    g.name,
			Samples: append([]GaugePoint(nil), g.samples...),
		})
	}
	return s
}

// CellLabel names one exported cell: the (workload, defense) pair of a grid
// cell, or whatever identifies a standalone run.
type CellLabel struct {
	Workload string
	Defense  string
}

// cell is one recorded grid cell: its label, telemetry snapshot, and trace
// (nil when the collector does not trace).
type cell struct {
	label  CellLabel
	snap   Snapshot
	trace  *ring
	filled bool
}

// Collector is a grid's only observer. Start sizes it for the grid; each
// worker builds its cell's recorder with NewRecorder and Records only its
// own cell index, exactly like parallel.Map's by-index result slots — which
// is what makes every export byte-identical between serial and parallel
// execution of the same grid.
//
// A nil *Collector observes nothing: NewRecorder returns nil (a detached
// machine), and Start, Record and Export do nothing.
type Collector struct {
	trace   bool // NewRecorder builds tracing recorders
	windows int  // flight-recorder ring size K; 0 keeps the full trace

	cells []cell
}

// NewCollector builds the observer for the commands' -telemetry,
// -timeline and -timeline-windows flags: telemetry and trace say whether
// either output was asked for, and windows is the flight-recorder ring size
// K in tREFI windows (0 keeps the full trace). It returns nil when neither
// output is wanted, so the grid runs detached, and an error for K < 0.
func NewCollector(telemetry, trace bool, windows int) (*Collector, error) {
	if windows < 0 {
		return nil, fmt.Errorf("-timeline-windows %d: want K >= 0 (0 keeps the full trace)", windows)
	}
	if !telemetry && !trace {
		return nil, nil
	}
	return &Collector{trace: trace, windows: windows}, nil
}

// Start (re)sizes the collector for a grid of n cells, dropping any
// previously recorded cells.
func (c *Collector) Start(n int) {
	if c != nil {
		c.cells = make([]cell, n)
	}
}

// NewRecorder builds one cell's recorder; it traces when the collector does.
func (c *Collector) NewRecorder() *Recorder {
	if c == nil {
		return nil
	}
	r := NewRecorder()
	if c.trace {
		r.trace = newRing(c.windows)
	}
	return r
}

// Record stores cell i's telemetry snapshot and trace under one label.
// Distinct indexes may be recorded from distinct goroutines concurrently
// (each touches only its own slot).
func (c *Collector) Record(i int, label CellLabel, rec *Recorder) {
	if c == nil || rec == nil {
		return
	}
	c.cells[i] = cell{label: label, snap: rec.Snapshot(), trace: rec.trace, filled: true}
}

// Cells returns the number of recorded cells.
//
//twicelint:keep called by internal/experiments tests
func (c *Collector) Cells() int {
	n := 0
	for i := range c.cells {
		if c.cells[i].filled {
			n++
		}
	}
	return n
}

// Export writes the recorded cells to files, creating missing directories:
// the telemetry as <dir>/<name>.csv and <dir>/<name>.jsonl when dir is
// non-empty, and the Perfetto trace to tracePath when that is non-empty. It
// returns the paths written.
func (c *Collector) Export(dir, name, tracePath string) ([]string, error) {
	if c == nil {
		return nil, nil
	}
	base := filepath.Join(dir, name)
	type output struct {
		path  string
		write func(io.Writer) error
	}
	var outs []output
	if dir != "" {
		outs = append(outs, output{base + ".csv", c.WriteCSV}, output{base + ".jsonl", c.WriteJSONL})
	}
	if tracePath != "" {
		outs = append(outs, output{tracePath, c.WriteTrace})
	}
	var paths []string
	for _, o := range outs {
		if err := writeFile(o.path, o.write); err != nil {
			return paths, err
		}
		paths = append(paths, o.path)
	}
	return paths, nil
}

// writeFile creates path (and its directory) and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return err
	}
	// Close errors on a written file matter: they can hide lost rows.
	return f.Close()
}

// WriteCSV writes the long-form time-series export in cell order: one row
// per sample, `cell,workload,defense,series,t_ps,bank,value`. Occupancy
// samples emit a twice_occupancy row (and a twice_pruned row when the prune
// count is nonzero); gauge samples emit rows named after the gauge with
// bank -1.
func (c *Collector) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("cell,workload,defense,series,t_ps,bank,value\n"); err != nil {
		return err
	}
	for i := range c.cells {
		s, l := &c.cells[i].snap, c.cells[i].label
		for _, o := range s.Occupancy {
			if _, err := fmt.Fprintf(bw, "%d,%s,%s,twice_occupancy,%d,%d,%d\n",
				i, l.Workload, l.Defense, int64(o.T), o.Bank, o.Occupancy); err != nil {
				return err
			}
			if o.Pruned != 0 {
				if _, err := fmt.Fprintf(bw, "%d,%s,%s,twice_pruned,%d,%d,%d\n",
					i, l.Workload, l.Defense, int64(o.T), o.Bank, o.Pruned); err != nil {
					return err
				}
			}
		}
		for _, g := range s.Gauges {
			for _, p := range g.Samples {
				if _, err := fmt.Fprintf(bw, "%d,%s,%s,%s,%d,-1,%d\n",
					i, l.Workload, l.Defense, g.Name, int64(p.T), p.V); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// cellLine is the per-cell JSONL header record.
type cellLine struct {
	Cell           int         `json:"cell"`
	Workload       string      `json:"workload"`
	Defense        string      `json:"defense"`
	Events         EventTotals `json:"events"`
	MaxOccupancy   int         `json:"max_occupancy"`
	DroppedSamples int64       `json:"dropped_samples"`
}

// histLine is the per-histogram JSONL record.
type histLine struct {
	Cell   int     `json:"cell"`
	Hist   string  `json:"hist"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Total  int64   `json:"total"`
	Mean   float64 `json:"mean"`
	Max    int64   `json:"max"`
}

// WriteJSONL writes one header line per cell (event totals, max occupancy,
// drop accounting) followed by one line per histogram. Lines are emitted in
// cell order with struct-driven field order, never map iteration.
func (c *Collector) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range c.cells {
		s, l := &c.cells[i].snap, c.cells[i].label
		if err := enc.Encode(cellLine{
			Cell:           i,
			Workload:       l.Workload,
			Defense:        l.Defense,
			Events:         s.Events,
			MaxOccupancy:   s.MaxOccupancy,
			DroppedSamples: s.DroppedSamples,
		}); err != nil {
			return err
		}
		for _, h := range s.Histograms {
			if err := enc.Encode(histLine{
				Cell:   i,
				Hist:   h.Name,
				Bounds: h.Bounds,
				Counts: h.Counts,
				Total:  h.Total,
				Mean:   h.Mean,
				Max:    h.Max,
			}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
