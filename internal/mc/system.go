// Package mc implements the memory controller of the paper's Table 4:
// per-channel read queues and write buffers (kept as per-bank buckets),
// PAR-BS command scheduling, open/closed/minimalist-open page policies,
// auto-refresh pacing, and the RCD-mediated adjacent-row-refresh protocol
// with negative acknowledgements.
//
// The package is split by responsibility: queue.go holds the per-channel
// queue state and the incrementally maintained scheduler indexes,
// scheduler.go the indexed candidate selection, and exec.go the command
// execution. The naive reference scheduler the differential test pins the
// indexed one against lives in reference_test.go.
package mc

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/dram"
	"repro/internal/probe"
	"repro/internal/rcd"
	"repro/internal/stats"
	"repro/internal/timing"
)

// Config parameterises the controller.
type Config struct {
	DRAM       dram.Params
	QueueDepth int        // per-channel read queue entries
	PagePolicy PagePolicy // open, closed, or minimalist-open
	MaxRowHits int        // minimalist-open hit budget before precharge
	BatchCap   int        // PAR-BS per-(core,bank) marking cap

	// Write buffering: writes are posted into a separate queue and drained
	// in bursts so they stay off the read critical path. Draining starts at
	// WriteHigh occupancy (or when the read queue is empty) and stops at
	// WriteLow.
	WriteQueueDepth int
	WriteHigh       int
	WriteLow        int
}

// NewConfig returns the paper's Table 4 controller configuration: 64-entry
// queues, PAR-BS scheduling, minimalist-open paging with 4 row hits.
func NewConfig(p dram.Params) Config {
	return Config{
		DRAM:            p,
		QueueDepth:      64,
		PagePolicy:      MinimalistOpen,
		MaxRowHits:      4,
		BatchCap:        5,
		WriteQueueDepth: 64,
		WriteHigh:       48,
		WriteLow:        16,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.PagePolicy != OpenPage && c.PagePolicy != ClosedPage && c.PagePolicy != MinimalistOpen:
		return fmt.Errorf("mc: unknown page policy %v", c.PagePolicy)
	case c.QueueDepth < 1:
		return fmt.Errorf("mc: queue depth must be positive, got %d", c.QueueDepth)
	case c.PagePolicy == MinimalistOpen && c.MaxRowHits < 1:
		return fmt.Errorf("mc: minimalist-open needs MaxRowHits ≥ 1, got %d", c.MaxRowHits)
	case c.BatchCap < 1:
		return fmt.Errorf("mc: PAR-BS needs BatchCap ≥ 1, got %d", c.BatchCap)
	case !(0 <= c.WriteLow && c.WriteLow < c.WriteHigh && c.WriteHigh <= c.WriteQueueDepth):
		return fmt.Errorf("mc: write buffer must satisfy 0 ≤ low (%d) < high (%d) ≤ depth (%d)",
			c.WriteLow, c.WriteHigh, c.WriteQueueDepth)
	case c.DRAM.BanksPerRank > 64:
		// The scheduler keeps one 64-bit bank-state word per rank.
		return fmt.Errorf("mc: at most 64 banks per rank, got %d", c.DRAM.BanksPerRank)
	}
	return c.DRAM.Validate()
}

// System is the full memory controller population plus the DRAM device,
// timing checker, and RCD-hosted defense it drives.
type System struct {
	cfg   Config       //twicelint:keep controller configuration, fixed at construction
	dev   *dram.Device //twicelint:keep wiring; the device resets itself (machine owns the order)
	chk   *timing.Checker
	rcd   *rcd.RCD
	cnt   *stats.Counters //twicelint:keep wiring; counters are reset by the machine that owns them
	chans []*channel
	ids   int64
	// steps counts scheduler steps executed since construction or Reset;
	// BenchmarkSchedulerStep and the bench/ mc replay divide wall time by
	// it for ns/step.
	steps int64
	// nextWake caches the minimum of the channels' wake times so the event
	// loop's NextEvent poll is O(1) instead of a per-iteration rescan of
	// every channel. It is maintained by Enqueue (a new request can only
	// pull the wake time earlier) and recomputed by Advance in the same
	// pass that steps the channels.
	nextWake clock.Time
	// trace, when set, receives every issued command (see exec). Test
	// harness hook; the attachment is caller-owned and survives Reset.
	//twicelint:keep caller-owned hook; survives reset like the probe attachment
	trace func(TraceEvent)
	// release, when set, receives every request after its completion
	// callback has run, letting the submitter pool and reuse request
	// objects. The system never touches a request after releasing it.
	//twicelint:keep submitter-owned hook; survives reset like the probe attachment
	release func(*Request)
	// detectionsByCore attributes defense detections to the core whose
	// activation triggered them — the paper's "penalize malicious users"
	// capability (§1) that only counter-based schemes provide.
	detectionsByCore map[int]int64
	// probes, when non-nil, receives hot-path telemetry events. The nil
	// check at each hook site is the entire no-sink cost (see internal/probe).
	//twicelint:keep attachment is machine-owned; Reset must not detach it
	probes *probe.Recorder
}

// New wires a controller over the given device and RCD. The counters object
// receives all activity accounting. New allocates the queues, scratch and
// bank arrays and leaves every initial value to Reset.
func New(cfg Config, dev *dram.Device, r *rcd.RCD, cnt *stats.Counters) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:              cfg,
		dev:              dev,
		chk:              timing.NewChecker(cfg.DRAM),
		rcd:              r,
		cnt:              cnt,
		chans:            make([]*channel, cfg.DRAM.Channels),
		detectionsByCore: map[int]int64{},
	}
	ranks := cfg.DRAM.RanksPerChannel
	nbanks := ranks * cfg.DRAM.BanksPerRank
	for c := range s.chans {
		s.chans[c] = &channel{
			sys:        s,
			idx:        c,
			banks:      make([]bankCtl, nbanks),
			refreshDue: make([]clock.Time, ranks),
			bankqs:     make([]bankq, nbanks),
			busy:       make([]uint64, ranks),
			open:       make([]uint64, ranks),
			hit:        make([]uint64, ranks),
			reads:      make([]uint64, ranks),
			attn:       make([]uint64, ranks),
			memo:       make([]setMemo, ranks),
		}
	}
	s.Reset()
	return s, nil
}

// SetRelease installs a recycling hook: fn receives each request once its
// completion callback has returned and the system holds no further reference
// to it. Pass nil to disable pooling (the default).
func (s *System) SetRelease(fn func(*Request)) { s.release = fn }

// SetTrace installs a command trace hook: fn receives every issued DRAM
// command, in issue order, before it executes. Pass nil to detach. The
// differential scheduler test compares full traces through this hook; it is
// not intended for production runs (the callback runs on the hot path).
//
//twicelint:keep called by the bench/ module
func (s *System) SetTrace(fn func(TraceEvent)) { s.trace = fn }

// SetProbes attaches (or, with nil, detaches) a telemetry recorder. The
// recorder must not be shared across concurrently running systems; Reset
// does not touch the attachment — the machine owns it.
func (s *System) SetProbes(p *probe.Recorder) { s.probes = p }

// Reset returns the controller, its timing checker and its RCD's pending
// ARRs to their just-constructed state while reusing queues, scratch, and
// bank arrays. With the RCD and the mitigation debt cleared, no bank owes
// defense work, so every attention word is 0 and exact. The device, the
// RCD's hosted defense and the counters were handed to New by the caller
// and are the caller's to reset. New ends with Reset, so a reset system
// schedules the same command stream a fresh one would.
func (s *System) Reset() {
	s.chk.Reset()
	s.rcd.Reset()
	cfg := s.cfg
	for c, ch := range s.chans {
		ch.draining = false
		for b := range ch.banks {
			ch.banks[b].open = -1
			ch.banks[b].hits = 0
			ch.banks[b].mit = ch.banks[b].mit[:0]
		}
		for rk := range ch.refreshDue {
			// Stagger rank refreshes across the interval so all ranks never
			// refresh simultaneously.
			off := clock.Time(c*cfg.DRAM.RanksPerChannel+rk+1) * cfg.DRAM.TREFI /
				clock.Time(cfg.DRAM.Channels*cfg.DRAM.RanksPerChannel+1)
			ch.refreshDue[rk] = cfg.DRAM.TREFI + off
		}
		ch.wake = ch.refreshDue[0]
		for _, d := range ch.refreshDue {
			ch.wake = clock.Min(ch.wake, d)
		}
		clear(ch.coreRank)
		clear(ch.batchSlot)
		clear(ch.batchLoad)
		ch.batchCores = ch.batchCores[:0]
		ch.resetIndexes()
	}
	s.ids = 0
	s.steps = 0
	clear(s.detectionsByCore)
	s.nextWake = clock.Never
	for _, ch := range s.chans {
		s.nextWake = clock.Min(s.nextWake, ch.wake)
	}
}

// RCD returns the register clock driver.
func (s *System) RCD() *rcd.RCD { return s.rcd }

// NewID allocates a request id.
func (s *System) NewID() int64 { s.ids++; return s.ids }

// Steps returns how many scheduler steps have executed since construction or
// the last Reset. One step issues at most one DRAM command.
//
//twicelint:keep called by the bench/ module
func (s *System) Steps() int64 { return s.steps }

// DetectionsByCore returns, per core, how many row-hammer detections that
// core's activations triggered (a copy).
func (s *System) DetectionsByCore() map[int]int64 {
	out := make(map[int]int64, len(s.detectionsByCore))
	for c, n := range s.detectionsByCore {
		out[c] = n
	}
	return out
}

// BankQueueDepth returns how many queued demand requests (read queue plus
// write buffer) currently target the given bank — a direct read of the
// scheduler's per-bank bucket.
func (s *System) BankQueueDepth(channelIdx, rank, bank int) int {
	ch := s.chans[channelIdx]
	bq := &ch.bankqs[ch.flat(rank, bank)]
	return len(bq.reads) + len(bq.writes)
}

// MaxBankQueueDepth returns the deepest per-bank request bucket across the
// whole system — the queue-depth gauge the machine samples per tREFI.
func (s *System) MaxBankQueueDepth() int64 {
	var max int64
	for _, ch := range s.chans {
		for i := range ch.bankqs {
			bq := &ch.bankqs[i]
			if d := int64(len(bq.reads) + len(bq.writes)); d > max {
				max = d
			}
		}
	}
	return max
}

// Enqueue adds a request to its channel's read queue, or a write to its
// write buffer. It returns false if the target queue is full (the caller
// must retry after progress).
//
//twicelint:hotpath request admission runs once per simulated request
func (s *System) Enqueue(req *Request, now clock.Time) bool {
	ch := s.chans[req.Addr.Channel]
	full := ch.nreads >= s.cfg.QueueDepth
	if req.Write {
		full = ch.nwrites >= s.cfg.WriteQueueDepth
	}
	if full {
		return false
	}
	req.Arrival = now
	dirtied := ch.admit(req, now)
	// Wake the channel at now unless the step that wake-up would run
	// reproduces its last one: that step issued nothing, and since then
	// only admissions that dirtied no demand set changed the channel. The
	// step at now would see the same attention banks, refresh state and set
	// masks, reuse every set it reads (each clean, with a time no earlier
	// than the wake time the last step returned), issue nothing and return
	// the same wake time. Of its two toggles, the drain burst is tested
	// here, and a PAR-BS batch cannot be due: each step forms one first and
	// only a command retires a mark, so after a step that issued nothing
	// the read queue is empty or holds a marked request, and a read into an
	// empty read queue flips its bank's reads bit and wakes the channel.
	// (Once an admission has woken the channel at now, a later skip at now
	// changes nothing.)
	if !ch.settled || dirtied || ch.drainFlips() {
		ch.wake = clock.Min(ch.wake, now)
		s.nextWake = clock.Min(s.nextWake, ch.wake)
	}
	if s.probes != nil {
		if req.Write {
			s.probes.Enqueue(ch.nwrites)
		} else {
			s.probes.Enqueue(ch.nreads)
		}
		s.probes.BankDepth(s.BankQueueDepth(req.Addr.Channel, req.Addr.Rank, req.Addr.Bank))
	}
	return true
}

// NextEvent returns the earliest time any channel has work to do. The value
// is cached (see System.nextWake), so polling it every event-loop iteration
// is free.
func (s *System) NextEvent() clock.Time {
	return s.nextWake
}

// Advance drives every channel up to and including time now, refreshing the
// cached next-event time in the same pass. Channels whose wake time lies in
// the future are skipped without entering their step loop.
//
//twicelint:hotpath the event-loop core; every simulated tick funnels through it
func (s *System) Advance(now clock.Time) {
	next := clock.Never
	for _, ch := range s.chans {
		if ch.wake > now {
			next = clock.Min(next, ch.wake)
			continue
		}
		s.steps += ch.advanceTo(now)
		next = clock.Min(next, ch.wake)
	}
	s.nextWake = next
}

// advanceTo steps this channel until its wake time passes t, stepping each
// event at its own due time, and returns the number of scheduler steps
// executed.
//
//twicelint:hotpath per-channel event-loop core
func (ch *channel) advanceTo(t clock.Time) int64 {
	steps := int64(0)
	for ch.wake <= t {
		ch.wake = ch.step(ch.wake)
		steps++
	}
	return steps
}
