// Package probe is the simulator's observability layer: zero-alloc event
// hooks on the hot paths (ACT, ARR, nack, prune, entry spill, refresh, queue
// enqueue/dequeue), deterministic fixed-bucket histograms, time-series
// samplers keyed to *simulated* clock time, and the simulated-time Perfetto
// trace (DESIGN.md §15). One Recorder updates the telemetry and, when it
// traces, the trace from the same hook bodies, so both views see one event
// stream in one order.
//
// The attachment contract keeps the no-sink cost at a single nil check: the
// instrumented components hold a concrete *Recorder pointer and guard every
// hook call with `if probes != nil`. No interface dispatch, no closure, no
// allocation sits between the hot path and the recorder; the AllocsPerRun
// ceilings in internal/core and internal/sim hold with probes attached or
// detached.
//
// Determinism is the second contract: every recorded quantity is a function
// of the simulated event stream alone. Samples and trace events are
// timestamped with the simulated clock (never wall time), series are
// appended in event order, and the export layer iterates only slices — so a
// collector filled by a serial run, a parallel run, or a recycled-machine
// run of the same seed serializes to identical bytes. twicelint's
// nondeterm/maprange rules apply to this package like any other internal
// package and keep it that way.
package probe

import (
	"repro/internal/clock"
	"repro/internal/stats"
)

// maxSamples caps the occupancy series and each gauge series. At 32 bytes
// per occupancy sample this bounds a series near 32 MB; samples past the cap
// are counted in Snapshot.DroppedSamples rather than silently lost.
const maxSamples = 1 << 20

// EventTotals counts every probe event the recorder observed.
type EventTotals struct {
	ACTs          int64 `json:"acts"`           // demand row activations
	ARRs          int64 `json:"arrs"`           // adjacent-row-refresh commands executed
	ARRsQueued    int64 `json:"arrs_queued"`    // aggressors filed as pending ARR work at the RCD
	Nacks         int64 `json:"nacks"`          // controller commands nacked during ARR windows
	Refreshes     int64 `json:"refreshes"`      // per-rank auto-refresh commands
	Enqueues      int64 `json:"enqueues"`       // requests accepted into a controller queue
	Dequeues      int64 `json:"dequeues"`       // requests completed and removed from a queue
	TableTicks    int64 `json:"table_ticks"`    // TWiCe prune passes observed (per bank per PI)
	EntriesPruned int64 `json:"entries_pruned"` // table entries invalidated by pruning
	Spills        int64 `json:"spills"`         // inserts landing outside their preferred location
	Detections    int64 `json:"detections"`     // row-hammer detections raised by the defense
}

// OccSample is one point of the TWiCe table-occupancy trajectory: the valid
// entry count of one bank's table immediately after a prune pass — the
// quantity Figure 5 of the paper plots against the §4.4 bound.
type OccSample struct {
	T         clock.Time `json:"t_ps"`
	Bank      int        `json:"bank"`
	Occupancy int        `json:"occupancy"`
	Pruned    int        `json:"pruned"`
}

// GaugePoint is one sample of a named gauge.
type GaugePoint struct {
	T clock.Time `json:"t_ps"`
	V int64      `json:"v"`
}

// gauge is a registered sampler: fn is read at each sampling tick.
type gauge struct {
	name    string
	fn      func() int64
	samples []GaugePoint
}

// Recorder accumulates telemetry, and optionally a trace, for one simulation
// run. It is not safe for concurrent use; in grid runs each cell gets its
// own recorder (the cells are already independent machines), which is also
// what makes parallel telemetry deterministic.
type Recorder struct {
	totals EventTotals

	latency   *stats.Histogram // request completion - arrival, in ps
	depth     *stats.Histogram // queue occupancy observed at enqueue/dequeue
	interARR  *stats.Histogram // same-bank ARR-to-ARR distance, in ps
	bankDepth *stats.Histogram // per-bank scheduler-bucket occupancy at enqueue

	lastARR []clock.Time // per flat bank; clock.Never = no ARR seen yet

	occ    []OccSample
	maxOcc int

	gauges      []gauge
	sampleEvery clock.Time // gauge period; Attach sets it to tREFI
	nextSample  clock.Time

	sampleCap int // maxSamples; tests lower it to exercise the cap
	dropped   int64

	// trace is the flight-recorder ring of simulated-time events, nil when
	// the recorder does not trace (Collector.NewRecorder decides).
	trace *ring
}

// latencyBounds doubles from 50 ns: DRAM hits land in the first buckets,
// refresh- and drain-delayed requests spread across the tail, and anything
// past ~1.6 ms overflows into the final bucket.
func latencyBounds() []int64 {
	b := make([]int64, 0, 16)
	v := int64(50 * clock.Nanosecond)
	for i := 0; i < 16; i++ {
		b = append(b, v)
		v *= 2
	}
	return b
}

// interARRBounds doubles from 100 ns up to ~1.6 s of simulated time.
func interARRBounds() []int64 {
	b := make([]int64, 0, 24)
	v := int64(100 * clock.Nanosecond)
	for i := 0; i < 24; i++ {
		b = append(b, v)
		v *= 2
	}
	return b
}

// depthBounds covers the controller's 64-entry queues with fine low-end
// resolution (most enqueues see a near-empty queue).
func depthBounds() []int64 {
	return []int64{0, 1, 2, 4, 8, 16, 32, 48, 64, 96, 128}
}

// bankDepthBounds covers one bank's share of the queue: with 64 entries
// spread over 32+ banks, per-bank buckets rarely exceed a handful even when
// the channel queue is full, so the low end gets unit resolution.
func bankDepthBounds() []int64 {
	return []int64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32}
}

// NewRecorder builds a telemetry recorder that does not trace; a grid's
// Collector builds tracing ones. Attaching it to a machine sizes it.
func NewRecorder() *Recorder {
	return &Recorder{
		latency:   stats.NewHistogram(latencyBounds()...),
		depth:     stats.NewHistogram(depthBounds()...),
		interARR:  stats.NewHistogram(interARRBounds()...),
		bankDepth: stats.NewHistogram(bankDepthBounds()...),
		sampleCap: maxSamples,
	}
}

// Attach installs the observed machine's topology and period: per-bank
// state for totalBanks flat banks, the trace's (channel, bank) tracks, and
// period — tREFI — as both the gauge-sampling period and the
// flight-recorder window. The machine calls it when the recorder is
// attached; re-attaching to the same topology keeps the recorded state.
func (r *Recorder) Attach(channels, totalBanks int, period clock.Time) {
	if len(r.lastARR) != totalBanks {
		r.lastARR = make([]clock.Time, totalBanks)
		for i := range r.lastARR {
			r.lastARR[i] = clock.Never
		}
	}
	r.sampleEvery = period
	if r.trace != nil {
		r.trace.attach(channels, totalBanks, period)
	}
}

// AddGauge registers a named sampler read at every sampling tick. A second
// registration under the same name replaces the sampler but keeps the
// recorded series (the machine re-registers its gauges on re-attachment).
func (r *Recorder) AddGauge(name string, fn func() int64) {
	for i := range r.gauges {
		if r.gauges[i].name == name {
			r.gauges[i].fn = fn
			return
		}
	}
	r.gauges = append(r.gauges, gauge{name: name, fn: fn})
}

// ---- hot-path hooks ----
//
// Callers guard each call with `if probes != nil`; the methods themselves
// assume a non-nil receiver and do only counter increments, histogram
// observes (a binary search over a fixed bound slice), and amortized-O(1)
// slice appends bounded by the sample and event caps. Each hook that has a
// trace Kind records it in the same body that updates the totals.

// ACT records one demand row activation.
func (r *Recorder) ACT(bank int, now clock.Time) {
	r.totals.ACTs++
	if r.trace != nil {
		r.trace.onBank(KindACT, bank, 0, 0, now)
	}
}

// ARR records one executed adjacent-row refresh and the simulated-time
// distance to the bank's previous ARR.
func (r *Recorder) ARR(bank int, now clock.Time) {
	r.totals.ARRs++
	if bank < len(r.lastARR) {
		if last := r.lastARR[bank]; last != clock.Never {
			r.interARR.Observe(int64(now - last))
		}
		r.lastARR[bank] = now
	}
	if r.trace != nil {
		r.trace.onBank(KindARR, bank, 0, 0, now)
	}
}

// ARRQueued records one aggressor filed as pending ARR work at the RCD.
func (r *Recorder) ARRQueued(bank, pending int, now clock.Time) {
	r.totals.ARRsQueued++
	if r.trace != nil {
		r.trace.onBank(KindARRQueued, bank, int64(pending), 0, now)
	}
}

// Nack records one nacked controller command on the given channel.
func (r *Recorder) Nack(channel int, now clock.Time) {
	r.totals.Nacks++
	if r.trace != nil {
		r.trace.onChan(KindNack, channel, 0, 0, now)
	}
}

// Enqueue records a request accepted into a controller queue with the
// queue's post-insert occupancy.
func (r *Recorder) Enqueue(depth int) {
	r.totals.Enqueues++
	r.depth.Observe(int64(depth))
}

// BankDepth records the post-insert occupancy of one per-bank scheduler
// bucket (the controller's queued reads plus buffered writes targeting a
// single bank) — the quantity the indexed scheduler iterates per step.
func (r *Recorder) BankDepth(depth int) {
	r.bankDepth.Observe(int64(depth))
}

// Dequeue records a completed request on the given channel: its service
// latency, the channel's remaining queue occupancy, and the completion time.
func (r *Recorder) Dequeue(channel, depth int, latency, now clock.Time) {
	r.totals.Dequeues++
	r.depth.Observe(int64(depth))
	r.latency.Observe(int64(latency))
	if r.trace != nil {
		r.trace.onChan(KindRequest, channel, int64(depth), int64(latency), now)
	}
}

// Spill records one table insert that landed outside its preferred location
// (pa-TWiCe set borrowing, separated-table wide spill).
func (r *Recorder) Spill(bank int, now clock.Time) {
	r.totals.Spills++
	if r.trace != nil {
		r.trace.onBank(KindSpill, bank, 0, 0, now)
	}
}

// TableTick records one TWiCe prune pass: the bank's post-prune table
// occupancy and the number of entries invalidated. The per-(bank, PI) series
// it appends to is the Figure 5 trajectory.
func (r *Recorder) TableTick(bank, occupancy, pruned int, now clock.Time) {
	r.totals.TableTicks++
	r.totals.EntriesPruned += int64(pruned)
	if occupancy > r.maxOcc {
		r.maxOcc = occupancy
	}
	if r.trace != nil {
		r.trace.onBank(KindPrune, bank, int64(occupancy), int64(pruned), now)
	}
	if len(r.occ) >= r.sampleCap {
		r.dropped++
		return
	}
	//twicelint:allocok one sample per prune pass, bounded by maxSamples; growth amortizes
	r.occ = append(r.occ, OccSample{T: now, Bank: bank, Occupancy: occupancy, Pruned: pruned})
}

// Refresh records one per-rank auto-refresh command on the given channel.
// Gauge sampling is not driven here: the machine calls MaybeSample from its
// run loop instead, so gauges read state between event-loop iterations.
func (r *Recorder) Refresh(channel int, now clock.Time) {
	r.totals.Refreshes++
	if r.trace != nil {
		r.trace.onChan(KindRefresh, channel, 0, 0, now)
	}
}

// Detection records one row-hammer detection attributed to a core. The
// trace's flight recorder pins on the first detection, preserving the
// preceding windows for the export.
func (r *Recorder) Detection(bank, core int, now clock.Time) {
	r.totals.Detections++
	if r.trace != nil {
		r.trace.pinned = true
		r.trace.onBank(KindDetect, bank, int64(core), 0, now)
	}
}

// MaybeSample drives the periodic gauge samplers: when simulated time has
// crossed the sampling boundary, every registered gauge is read once. The
// machine calls it from the run loop after each event-loop iteration, so the
// gauges observe deterministic state at deterministic simulated times —
// byte-identical across serial, parallel, and recycled-machine runs.
func (r *Recorder) MaybeSample(now clock.Time) {
	if now < r.nextSample {
		return
	}
	for i := range r.gauges {
		g := &r.gauges[i]
		if g.fn == nil {
			continue
		}
		if len(g.samples) >= r.sampleCap {
			r.dropped++
			continue
		}
		//twicelint:allocok one sample per tREFI, bounded by maxSamples; growth amortizes
		g.samples = append(g.samples, GaugePoint{T: now, V: g.fn()})
	}
	if step := r.sampleEvery; step > 0 {
		for r.nextSample <= now {
			r.nextSample += step
		}
	} else {
		r.nextSample = now + 1
	}
}

// ---- read side ----

// Totals returns the event counters.
func (r *Recorder) Totals() EventTotals { return r.totals }

// MaxOccupancy returns the highest post-prune table occupancy observed on
// any bank — the value the §4.4 bound must dominate: core.Config.TableBound,
// 556 entries for the paper's DDR4-2400 parameters, which a legal stream
// reaches exactly (the paper's 553 is the same bound at maxact 164, not
// 165; EXPERIMENTS.md, deviation 1).
func (r *Recorder) MaxOccupancy() int { return r.maxOcc }

// OccupancySeries returns the recorded occupancy trajectory (shared storage;
// callers must not modify it).
func (r *Recorder) OccupancySeries() []OccSample { return r.occ }

// Instrumented is implemented by components that accept a probe recorder
// (TWiCe's engine, and any later defense that wants table-level telemetry).
// SetProbes(nil) detaches.
type Instrumented interface {
	SetProbes(*Recorder)
}
