package probe

import "repro/internal/clock"

// maxEvents caps the events one recorder's trace retains: ~2M events at
// 40 B each bounds a trace near 80 MB. Events past the cap are counted in
// the trace header's dropped_events rather than silently lost.
const maxEvents = 1 << 21

// Kind enumerates the trace event types.
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

// Event is one trace sample. Exactly one of Bank (flat, channel-major) and
// Chan is >= 0: bank-addressed events derive their channel from the
// topology at export time; channel-level events carry Chan directly.
type Event struct {
	Kind Kind
	Chan int32
	Bank int32
	A, B int64
	T    clock.Time
}

// window is one flight-recorder bucket: every retained event whose
// simulated time falls in [idx*length, (idx+1)*length).
type window struct {
	idx    int64
	events []Event
}

// ring is a recorder's trace: simulated-time events bucketed into windows of
// one attach period (tREFI). With windows = K > 0 it is a flight recorder
// that keeps only the newest K windows (older ones are evicted and counted)
// until the first detection pins it: eviction stops, so the windows leading
// up to the alarm survive to the export. With K = 0 it keeps the full trace
// in one window. eventCap bounds memory either way.
type ring struct {
	windows  int        // ring capacity K; 0 keeps every event
	length   clock.Time // window length; Attach sets it to tREFI
	eventCap int        // maxEvents; tests lower it to exercise the cap

	// Topology from Attach; the export routes flat banks onto
	// (channel, bank) tracks with it.
	channels, banksPerChannel int

	wins []window
	free [][]Event // evicted windows' storage, recycled by insertWindow

	retained       int
	total          int64
	droppedEvents  int64
	droppedWindows int64
	// evictedThrough is the highest window index the ring has evicted; a
	// late event at or below it is dropped (its window is already gone).
	evictedThrough int64

	// pinned is set by the first detection; a pinned ring stops evicting.
	pinned bool
}

// newRing builds a trace keeping the newest k windows (0 = full trace).
func newRing(k int) *ring {
	return &ring{windows: k, eventCap: maxEvents, channels: 1, banksPerChannel: 1, evictedThrough: -1}
}

// attach installs the machine's topology and the window length.
func (g *ring) attach(channels, totalBanks int, length clock.Time) {
	g.channels = max(channels, 1)
	g.banksPerChannel = max(totalBanks/g.channels, 1)
	g.length = length
}

// onBank records a bank-addressed event; onChan a channel-level one.
func (g *ring) onBank(k Kind, bank int, a, b int64, t clock.Time) {
	g.record(Event{Kind: k, Chan: -1, Bank: int32(bank), A: a, B: b, T: t}) //twicelint:checked flat bank index, bounded by TotalBanks
}

func (g *ring) onChan(k Kind, channel int, a, b int64, t clock.Time) {
	g.record(Event{Kind: k, Chan: int32(channel), Bank: -1, A: a, B: b, T: t}) //twicelint:checked channel index, bounded by DRAM.Channels
}

// record buckets one event into its window, evicting the oldest windows
// when the ring is over capacity and not pinned.
func (g *ring) record(e Event) {
	g.total++
	if g.retained >= g.eventCap {
		g.droppedEvents++
		return
	}
	w := g.windowFor(e.T)
	if w == nil {
		// Older than the oldest retained window: its bucket is already gone.
		g.droppedEvents++
		return
	}
	//twicelint:allocok window buffers are recycled through g.free; growth amortizes
	w.events = append(w.events, e)
	g.retained++
}

// windowFor returns the bucket for simulated time t, creating (and, ring
// mode, evicting) as needed. It returns nil when t falls before the ring's
// retained range. Events arrive in event-loop order, so a late event can
// land at most a couple of windows behind the newest one; the binary search
// below is the cold path.
func (g *ring) windowFor(t clock.Time) *window {
	idx := int64(0)
	if g.ringOn() {
		idx = int64(t / g.length)
	}
	n := len(g.wins)
	if n > 0 && g.wins[n-1].idx == idx {
		return &g.wins[n-1]
	}
	if n == 0 || idx > g.wins[n-1].idx {
		g.insertWindow(n, idx)
		// evict may shift the slice, but the newest window stays at the end
		// (the ring keeps at least one window).
		g.evict()
		return &g.wins[len(g.wins)-1]
	}
	if idx <= g.evictedThrough {
		return nil
	}
	lo, hi := 0, n
	for lo < hi {
		mid := lo + (hi-lo)/2
		if g.wins[mid].idx < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n && g.wins[lo].idx == idx {
		return &g.wins[lo]
	}
	return g.insertWindow(lo, idx)
}

// ringOn reports whether flight-recorder bucketing is active.
func (g *ring) ringOn() bool {
	return g.windows > 0 && g.length > 0
}

// insertWindow places an empty window with the given index at position pos,
// recycling evicted event storage when available.
func (g *ring) insertWindow(pos int, idx int64) *window {
	var evs []Event
	if n := len(g.free); n > 0 {
		evs = g.free[n-1]
		g.free = g.free[:n-1]
	}
	//twicelint:allocok window directory grows to the ring size once, then stays
	g.wins = append(g.wins, window{})
	copy(g.wins[pos+1:], g.wins[pos:])
	g.wins[pos] = window{idx: idx, events: evs}
	return &g.wins[pos]
}

// evict drops the oldest windows beyond the ring capacity. A pinned ring
// (first detection seen) never evicts: the pre-detection windows are the
// flight recording the export must preserve.
func (g *ring) evict() {
	if !g.ringOn() || g.pinned {
		return
	}
	for len(g.wins) > g.windows {
		w := g.wins[0]
		g.retained -= len(w.events)
		g.droppedEvents += int64(len(w.events))
		g.droppedWindows++
		if w.idx > g.evictedThrough {
			g.evictedThrough = w.idx
		}
		//twicelint:allocok freelist grows to the ring size once, then recycles
		g.free = append(g.free, w.events[:0])
		copy(g.wins, g.wins[1:])
		g.wins = g.wins[:len(g.wins)-1]
	}
}
