// Package timeline is the simulator's simulated-time tracing subsystem
// (DESIGN.md §15). Recorder accumulates discrete events (ACTs, ARRs, nacks,
// refreshes, TWiCe prunes and spills, request completions, detections) keyed
// strictly by the simulated clock, and trace.go exports them as Chrome
// trace-event / Perfetto JSON with one track per DRAM channel/bank. Events
// reach the recorder through internal/probe's hooks, so the byte content of
// a trace is a function of the simulated event stream alone. Wall-clock
// time never enters a trace.
//
// The attachment contract mirrors internal/probe: hot paths hold a concrete
// *Recorder and guard every call with a nil check (twicelint probeguard
// covers this package's Recorder like probe's), and the record path performs
// only amortized appends into reused window buffers — zero allocations when
// detached, bounded memory when attached.
//
// Flight-recorder mode: with Config.Windows = K > 0, only the last K windows
// of Config.Window simulated time each are retained (older windows are
// evicted and counted, not silently lost). The first detection pins the
// recorder: eviction stops, so the ring contents leading up to the detection
// survive in full to the export — the "what happened just before the alarm"
// view. MaxEvents still bounds memory after the pin.
package timeline

import (
	"repro/internal/clock"
)

// Kind enumerates the event types a Recorder accepts.
type Kind uint8

const (
	// KindACT is one demand row activation on a bank track.
	KindACT Kind = iota
	// KindARR is one executed adjacent-row refresh on a bank track.
	KindARR
	// KindARRQueued is one aggressor filed as pending ARR work (A = pending
	// depth after filing).
	KindARRQueued
	// KindNack is one nacked controller command on a channel track.
	KindNack
	// KindRequest is one completed memory request on a channel track
	// (A = remaining queue depth, B = service latency in ps).
	KindRequest
	// KindSpill is one TWiCe table insert landing outside its preferred
	// location.
	KindSpill
	// KindPrune is one TWiCe prune pass (A = post-prune occupancy, B =
	// entries invalidated); exported as a per-bank counter track.
	KindPrune
	// KindRefresh is one per-rank auto-refresh command on a channel track.
	KindRefresh
	// KindDetect is one row-hammer detection (A = triggering core). The
	// first KindDetect pins flight-recorder eviction.
	KindDetect
)

// Event is one timeline sample. Exactly one of Bank (flat, channel-major)
// and Chan is >= 0: bank-addressed events derive their channel from the
// topology at export time; channel-level events carry Chan directly.
type Event struct {
	Kind Kind
	Chan int32
	Bank int32
	A, B int64
	T    clock.Time
}

// DefaultMaxEvents bounds retained events when Config.MaxEvents is zero:
// ~2M events at 40 B each caps a recorder near 80 MB.
const DefaultMaxEvents = 1 << 21

// Config sizes a Recorder.
type Config struct {
	// Window is the flight-recorder window length in simulated time. Zero
	// lets the machine default it to tREFI at attachment (SetDefaultWindow).
	Window clock.Time
	// Windows is the ring capacity in windows; 0 disables the ring (full
	// trace, still bounded by MaxEvents).
	Windows int
	// MaxEvents caps retained events (0 = DefaultMaxEvents). Events past the
	// cap are counted in DroppedEvents rather than silently lost.
	MaxEvents int
}

// window is one flight-recorder bucket: every retained event whose
// simulated time falls in [idx*Window, (idx+1)*Window).
type window struct {
	idx    int64
	events []Event
}

// Recorder accumulates simulated-time events for one run. It is not safe
// for concurrent use; like probe.Recorder it is fed from the serial apply
// path only, which is what makes its contents deterministic. Callers hold a
// concrete *Recorder and nil-guard every call (probeguard contract).
type Recorder struct {
	cfg Config //twicelint:keep sizing is configuration, fixed at construction/attachment

	// Topology, installed at machine attachment (SetTopology); export routes
	// flat banks onto (channel, bank) tracks with it.
	channels        int //twicelint:keep topology survives any reuse by the attachment contract
	banksPerChannel int //twicelint:keep topology survives any reuse by the attachment contract

	wins []window
	free [][]Event // evicted windows' storage, recycled by insertWindow

	retained       int
	total          int64
	droppedEvents  int64
	droppedWindows int64
	// evictedThrough is the highest window index the ring has evicted; a
	// late event at or below it is dropped (its window is already gone).
	evictedThrough int64

	pinned bool
	pinT   clock.Time
}

// NewRecorder builds a recorder. Zero-value Config fields pick defaults at
// construction (MaxEvents) or machine attachment (Window).
func NewRecorder(cfg Config) *Recorder {
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = DefaultMaxEvents
	}
	return &Recorder{cfg: cfg, evictedThrough: -1}
}

// SetTopology installs the observed machine's channel count and flat bank
// count. The machine calls it at attachment; bank-addressed events route to
// (bank/banksPerChannel, bank%banksPerChannel) tracks at export.
func (r *Recorder) SetTopology(channels, totalBanks int) {
	if channels < 1 {
		channels = 1
	}
	bpc := totalBanks / channels
	if bpc < 1 {
		bpc = 1
	}
	r.channels = channels
	r.banksPerChannel = bpc
}

// SetDefaultWindow installs the flight-recorder window length unless the
// recorder's Config pinned one explicitly. The machine passes tREFI, the
// paper's natural scheduling quantum.
func (r *Recorder) SetDefaultWindow(d clock.Time) {
	if r.cfg.Window <= 0 {
		r.cfg.Window = d
	}
}

// ---- hot-path hooks ----
//
// Mirrors probe.Recorder's contract: callers guard each call with a nil
// check; the methods assume a non-nil receiver and do only window bucketing
// plus amortized appends into reused buffers.

// ACT records one demand row activation.
func (r *Recorder) ACT(bank int, t clock.Time) {
	r.record(Event{Kind: KindACT, Chan: -1, Bank: int32(bank), T: t}) //twicelint:checked flat bank index, bounded by TotalBanks
}

// ARR records one executed adjacent-row refresh.
func (r *Recorder) ARR(bank int, t clock.Time) {
	r.record(Event{Kind: KindARR, Chan: -1, Bank: int32(bank), T: t}) //twicelint:checked flat bank index, bounded by TotalBanks
}

// ARRQueued records one aggressor filed as pending ARR work.
func (r *Recorder) ARRQueued(bank, pending int, t clock.Time) {
	r.record(Event{Kind: KindARRQueued, Chan: -1, Bank: int32(bank), A: int64(pending), T: t}) //twicelint:checked flat bank index, bounded by TotalBanks
}

// Nack records one nacked controller command on the given channel.
func (r *Recorder) Nack(channel int, t clock.Time) {
	r.record(Event{Kind: KindNack, Chan: int32(channel), Bank: -1, T: t}) //twicelint:checked channel index, bounded by DRAM.Channels
}

// Request records one completed memory request on the given channel with
// the remaining queue depth and the request's service latency.
func (r *Recorder) Request(channel, depth int, latency, t clock.Time) {
	r.record(Event{Kind: KindRequest, Chan: int32(channel), Bank: -1, A: int64(depth), B: int64(latency), T: t}) //twicelint:checked channel index, bounded by DRAM.Channels
}

// Spill records one table insert outside its preferred location.
func (r *Recorder) Spill(bank int, t clock.Time) {
	r.record(Event{Kind: KindSpill, Chan: -1, Bank: int32(bank), T: t}) //twicelint:checked flat bank index, bounded by TotalBanks
}

// Prune records one TWiCe prune pass with post-prune occupancy and the
// number of entries invalidated.
func (r *Recorder) Prune(bank, occupancy, pruned int, t clock.Time) {
	r.record(Event{Kind: KindPrune, Chan: -1, Bank: int32(bank), A: int64(occupancy), B: int64(pruned), T: t}) //twicelint:checked flat bank index, bounded by TotalBanks
}

// Refresh records one per-rank auto-refresh command on the given channel.
func (r *Recorder) Refresh(channel int, t clock.Time) {
	r.record(Event{Kind: KindRefresh, Chan: int32(channel), Bank: -1, T: t}) //twicelint:checked channel index, bounded by DRAM.Channels
}

// Detect records one row-hammer detection attributed to a core. The first
// detection pins the flight recorder: eviction stops from this moment on,
// so the windows leading up to the alarm survive in full to the export.
func (r *Recorder) Detect(bank, core int, t clock.Time) {
	if !r.pinned {
		r.pinned = true
		r.pinT = t
	}
	r.record(Event{Kind: KindDetect, Chan: -1, Bank: int32(bank), A: int64(core), T: t}) //twicelint:checked flat bank index, bounded by TotalBanks
}

// record buckets one event into its window, evicting the oldest windows
// when the ring is over capacity and not pinned.
func (r *Recorder) record(e Event) {
	r.total++
	if r.retained >= r.cfg.MaxEvents {
		r.droppedEvents++
		return
	}
	w := r.windowFor(e.T)
	if w == nil {
		// Older than the oldest retained window: its bucket is already gone.
		r.droppedEvents++
		return
	}
	//twicelint:allocok window buffers are recycled through r.free; growth amortizes
	w.events = append(w.events, e)
	r.retained++
}

// windowFor returns the bucket for simulated time t, creating (and, ring
// mode, evicting) as needed. It returns nil when t falls before the ring's
// retained range. Events arrive in per-channel replay order, so a late
// event can land at most a couple of windows behind the newest one; the
// binary search below is the cold path.
func (r *Recorder) windowFor(t clock.Time) *window {
	idx := int64(0)
	if r.ringOn() {
		idx = int64(t / r.cfg.Window)
	}
	n := len(r.wins)
	if n > 0 && r.wins[n-1].idx == idx {
		return &r.wins[n-1]
	}
	if n == 0 || idx > r.wins[n-1].idx {
		r.insertWindow(n, idx)
		// evict may shift the slice, but the newest window stays at the end
		// (the ring keeps at least one window).
		r.evict()
		return &r.wins[len(r.wins)-1]
	}
	if idx <= r.evictedThrough {
		return nil
	}
	lo, hi := 0, n
	for lo < hi {
		mid := lo + (hi-lo)/2
		if r.wins[mid].idx < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n && r.wins[lo].idx == idx {
		return &r.wins[lo]
	}
	return r.insertWindow(lo, idx)
}

// ringOn reports whether flight-recorder bucketing is active.
func (r *Recorder) ringOn() bool {
	return r.cfg.Windows > 0 && r.cfg.Window > 0
}

// insertWindow places an empty window with the given index at position pos,
// recycling evicted event storage when available.
func (r *Recorder) insertWindow(pos int, idx int64) *window {
	var evs []Event
	if n := len(r.free); n > 0 {
		evs = r.free[n-1]
		r.free = r.free[:n-1]
	}
	//twicelint:allocok window directory grows to the ring size once, then stays
	r.wins = append(r.wins, window{})
	copy(r.wins[pos+1:], r.wins[pos:])
	r.wins[pos] = window{idx: idx, events: evs}
	return &r.wins[pos]
}

// evict drops the oldest windows beyond the ring capacity. A pinned
// recorder (first detection seen) never evicts: the pre-detection ring is
// the flight recording the export must preserve.
func (r *Recorder) evict() {
	if !r.ringOn() || r.pinned {
		return
	}
	for len(r.wins) > r.cfg.Windows {
		w := r.wins[0]
		r.retained -= len(w.events)
		r.droppedEvents += int64(len(w.events))
		r.droppedWindows++
		if w.idx > r.evictedThrough {
			r.evictedThrough = w.idx
		}
		//twicelint:allocok freelist grows to the ring size once, then recycles
		r.free = append(r.free, w.events[:0])
		copy(r.wins, r.wins[1:])
		r.wins = r.wins[:len(r.wins)-1]
	}
}

// ---- read side ----

// Total returns how many events were offered to the recorder.
func (r *Recorder) Total() int64 { return r.total }

// Retained returns how many events are currently held.
func (r *Recorder) Retained() int { return r.retained }

// DroppedEvents returns how many events were evicted or rejected (ring
// eviction, pre-ring arrivals, MaxEvents cap).
func (r *Recorder) DroppedEvents() int64 { return r.droppedEvents }

// DroppedWindows returns how many whole windows the ring evicted.
func (r *Recorder) DroppedWindows() int64 { return r.droppedWindows }

// Pinned reports whether a detection pinned the recorder, and when.
func (r *Recorder) Pinned() (bool, clock.Time) { return r.pinned, r.pinT }

// WindowIndexes returns the retained window indexes in ascending order
// (a fresh slice; test/introspection helper).
func (r *Recorder) WindowIndexes() []int64 {
	out := make([]int64, len(r.wins))
	for i := range r.wins {
		out[i] = r.wins[i].idx
	}
	return out
}

// Events returns the retained events in (window, arrival) order — the
// deterministic export order — as a fresh slice.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.retained)
	for i := range r.wins {
		out = append(out, r.wins[i].events...)
	}
	return out
}
