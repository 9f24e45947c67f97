package probe

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

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

// Snapshot is an immutable copy of a recorder's state, detached from the
// machine so it can be kept, merged into a Collector, and exported after the
// recorder is reused. Field order (not map iteration) drives every export,
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

// Collector gathers per-cell snapshots from a grid run. Start sizes it for
// the grid; each worker Records only its own cell index, exactly like
// parallel.Map's by-index result slots — which is what makes the export
// byte-identical between serial and parallel execution of the same grid.
type Collector struct {
	// Config seeds every per-cell Recorder the grid builds.
	Config Config

	labels []CellLabel
	snaps  []Snapshot
	filled []bool
}

// Start (re)sizes the collector for a grid of n cells, dropping any
// previously recorded snapshots.
func (c *Collector) Start(n int) {
	c.labels = make([]CellLabel, n)
	c.snaps = make([]Snapshot, n)
	c.filled = make([]bool, n)
}

// Record stores cell i's snapshot. Distinct indexes may be recorded from
// distinct goroutines concurrently (each touches only its own slots).
func (c *Collector) Record(i int, label CellLabel, s Snapshot) {
	c.labels[i] = label
	c.snaps[i] = s
	c.filled[i] = true
}

// Cells returns the number of recorded cells.
func (c *Collector) Cells() int {
	n := 0
	for _, f := range c.filled {
		if f {
			n++
		}
	}
	return n
}

// Snapshots returns the recorded snapshots in cell order (unrecorded cells
// are zero snapshots).
func (c *Collector) Snapshots() []Snapshot { return c.snaps }

// WriteCSV exports the collector's time series in cell order.
func (c *Collector) WriteCSV(w io.Writer) error { return WriteCSV(w, c.labels, c.snaps) }

// WriteJSONL exports the collector's totals and histograms in cell order.
func (c *Collector) WriteJSONL(w io.Writer) error { return WriteJSONL(w, c.labels, c.snaps) }

// WriteCSV writes the long-form time-series export: one row per sample,
// `cell,workload,defense,series,t_ps,bank,value`. Occupancy samples emit a
// twice_occupancy row (and a twice_pruned row when the prune count is
// nonzero); gauge samples emit rows named after the gauge with bank -1.
func WriteCSV(w io.Writer, labels []CellLabel, snaps []Snapshot) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("cell,workload,defense,series,t_ps,bank,value\n"); err != nil {
		return err
	}
	for i, s := range snaps {
		l := labels[i]
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
func WriteJSONL(w io.Writer, labels []CellLabel, snaps []Snapshot) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, s := range snaps {
		l := labels[i]
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
