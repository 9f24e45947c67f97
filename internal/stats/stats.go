// Package stats collects the activity counters the paper's evaluation
// reports: most importantly the number of row activations added by a
// row-hammer defense relative to the activations demanded by the workload
// (the y-axis of Figure 7), plus detection, nack, and latency bookkeeping.
package stats

import (
	"fmt"
	"strings"

	"repro/internal/clock"
)

// Counters aggregates simulator activity. All fields count events over one
// simulation run.
type Counters struct {
	// DRAM command stream.
	NormalACTs   int64 // activations demanded by the workload (incl. page-policy reopens)
	DefenseACTs  int64 // activations added by the RH defense (ARR victims, PARA/CBT refreshes, CRA counter traffic)
	Precharges   int64
	Reads        int64
	Writes       int64
	Refreshes    int64 // per-rank auto-refresh commands
	ARRs         int64 // adjacent-row-refresh commands issued
	Nacks        int64 // command attempts nacked during ARR windows
	RowHits      int64 // column accesses served from an already-open row
	RowMisses    int64 // accesses requiring an ACT on an idle bank
	RowConflicts int64 // accesses requiring PRE of another row first

	// Defense events.
	Detections int64 // aggressor rows explicitly flagged (counter-based schemes)
	BitFlips   int64 // row-hammer flips observed in the device model (should be 0 with a sound defense)

	// Memory-system service.
	RequestsServed int64
	TotalLatency   clock.Time // sum of request latencies
	MaxLatency     clock.Time

	// Workload side.
	Instructions int64
	CacheHits    int64
	CacheMisses  int64
}

// AddLatency records one served request's latency.
func (c *Counters) AddLatency(l clock.Time) {
	c.RequestsServed++
	c.TotalLatency += l
	if l > c.MaxLatency {
		c.MaxLatency = l
	}
}

// AvgLatency returns the mean request latency, or 0 with no requests.
func (c *Counters) AvgLatency() clock.Time {
	if c.RequestsServed == 0 {
		return 0
	}
	return c.TotalLatency / clock.Time(c.RequestsServed)
}

// AdditionalACTRatio returns the paper's headline metric: defense-added
// activations as a fraction of normal activations.
func (c *Counters) AdditionalACTRatio() float64 {
	if c.NormalACTs == 0 {
		return 0
	}
	return float64(c.DefenseACTs) / float64(c.NormalACTs)
}

// RowHitRate returns the fraction of column accesses that hit an open row.
func (c *Counters) RowHitRate() float64 {
	total := c.RowHits + c.RowMisses + c.RowConflicts
	if total == 0 {
		return 0
	}
	return float64(c.RowHits) / float64(total)
}

// String summarises the headline counters.
func (c *Counters) String() string {
	return fmt.Sprintf("ACTs=%d +%d (%.4f%%) reads=%d writes=%d refreshes=%d ARRs=%d nacks=%d detections=%d flips=%d",
		c.NormalACTs, c.DefenseACTs, 100*c.AdditionalACTRatio(),
		c.Reads, c.Writes, c.Refreshes, c.ARRs, c.Nacks, c.Detections, c.BitFlips)
}

// Histogram is a fixed-bucket histogram for latency and count distributions.
type Histogram struct {
	bounds []int64 // ascending upper bounds; final bucket is overflow
	counts []int64
	total  int64
	sum    int64
	max    int64
}

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds. Values above the last bound land in an overflow bucket.
func NewHistogram(bounds ...int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram bounds not ascending at %d", i))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one value. The bucket search is an open-coded binary
// search (identical result to sort.Search over the same predicate) so that
// the Observe path — called from the probe hooks on every enqueue and
// dequeue — builds no closure at all.
func (h *Histogram) Observe(v int64) {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	i := lo
	h.counts[i]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total }

// Bounds returns the ascending bucket upper bounds. The slice is the
// histogram's own storage; callers must treat it as read-only (exporters
// copy it before serializing).
func (h *Histogram) Bounds() []int64 { return h.bounds }

// Counts returns the per-bucket observation counts, with one trailing
// overflow bucket beyond Bounds. Same read-only contract as Bounds.
func (h *Histogram) Counts() []int64 { return h.counts }

// Mean returns the mean of observed values, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Max returns the maximum observed value.
func (h *Histogram) Max() int64 { return h.max }

// String renders the non-empty buckets.
func (h *Histogram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d mean=%.1f max=%d", h.total, h.Mean(), h.max)
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if i < len(h.bounds) {
			fmt.Fprintf(&sb, " ≤%d:%d", h.bounds[i], c)
		} else {
			fmt.Fprintf(&sb, " >%d:%d", h.bounds[len(h.bounds)-1], c)
		}
	}
	return sb.String()
}
