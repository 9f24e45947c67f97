package mc

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/dram"
	"repro/internal/rcd"
	"repro/internal/stats"
)

// The differential suite pins the central scheduler invariant: the indexed
// scheduler (scheduler.go) and the naive reference (reference_test.go) issue
// byte-identical command streams. Randomized request mixes are run through
// both implementations across every page policy and both schedulers, with a
// defense that exercises the ARR/nack/mitigation classes, and the full
// issued-command trace plus all end-of-run accounting must match exactly.

// diffParams is a two-rank topology so the rank-level indexes (demand
// counters, rank-wide tRRD/tFAW and nack windows) see cross-rank traffic.
func diffParams() dram.Params {
	p := dram.DDR4_2400()
	p.Channels = 1
	p.RanksPerChannel = 2
	p.BanksPerRank = 4
	p.RowsPerBank = 128
	p.ColumnsPerRow = 16
	p.SpareRowsPerBank = 8
	p.NTh = 140000
	return p
}

// diffDefense deterministically requests every kind of mitigation work so
// the differential streams cover the ARR, nack, and mitigation-debt
// scheduling classes without needing TWiCe's full detection threshold.
type diffDefense struct {
	every int // fire cadence in ACT observations
	calls int
}

func (d *diffDefense) Name() string { return "diff" }

func (d *diffDefense) OnActivate(_ dram.BankID, row int, _ clock.Time) defense.Action {
	d.calls++
	switch {
	case d.calls%d.every == 0:
		return defense.Action{ARRAggressors: []int{row}, Detected: true}
	case d.calls%d.every == d.every/2:
		return defense.Action{LogicalVictims: []int{row - 1, row + 1}, ExtraAccesses: 1}
	}
	return defense.Action{}
}

func (d *diffDefense) OnRefreshTick(dram.BankID, clock.Time) {}
func (d *diffDefense) Reset()                                { d.calls = 0 }

// reqSpec is one generated request plus its submission time.
type reqSpec struct {
	at    clock.Time
	addr  dram.Addr
	write bool
	core  int
}

// mkStream generates a reproducible request mix: mostly-random addresses
// with a hot set (row reuse exercises the hit counters and, with hammerFrac
// high, the defense paths) and bursty arrival gaps that keep several
// requests in flight per bank.
func mkStream(seed int64, n int, p dram.Params, hammerFrac float64) []reqSpec {
	rng := rand.New(rand.NewSource(seed))
	hot := make([]dram.Addr, 4)
	for i := range hot {
		hot[i] = dram.Addr{
			Rank: rng.Intn(p.RanksPerChannel),
			Bank: rng.Intn(p.BanksPerRank),
			Row:  1 + rng.Intn(p.RowsPerBank-2),
		}
	}
	specs := make([]reqSpec, n)
	at := clock.Time(0)
	for i := range specs {
		var a dram.Addr
		if rng.Float64() < hammerFrac {
			a = hot[rng.Intn(len(hot))]
		} else {
			a = dram.Addr{
				Rank: rng.Intn(p.RanksPerChannel),
				Bank: rng.Intn(p.BanksPerRank),
				Row:  1 + rng.Intn(p.RowsPerBank-2),
			}
		}
		a.Col = rng.Intn(p.ColumnsPerRow)
		specs[i] = reqSpec{
			at:    at,
			addr:  a,
			write: rng.Intn(10) < 3,
			core:  rng.Intn(4),
		}
		if rng.Intn(4) > 0 { // bursts: 3 in 4 requests arrive back-to-back
			at += clock.Time(rng.Intn(40)) * clock.Nanosecond
		}
	}
	return specs
}

// streamResult is everything a stream run observes; the differential
// assertion is plain equality of two of these (minus the slices, compared
// element-wise for better failure output).
type streamResult struct {
	trace  []TraceEvent
	cnt    stats.Counters
	det    map[int]int64
	steps  int64
	served int
}

// runStream drives one freshly built system through the spec stream with
// queue-full retry, then drains trailing defense work, returning the full
// issued-command trace and accounting.
func runStream(t *testing.T, cfg Config, def defense.Defense, specs []reqSpec, useRef bool) streamResult {
	t.Helper()
	dev, err := dram.NewDevice(cfg.DRAM, nil)
	if err != nil {
		t.Fatal(err)
	}
	cnt := &stats.Counters{}
	sys, err := New(cfg, dev, rcd.New(cfg.DRAM, def), cnt)
	if err != nil {
		t.Fatal(err)
	}
	advance := sys.Advance
	if useRef {
		advance = newRefScheduler(sys).Advance
	}
	var res streamResult
	sys.SetTrace(func(ev TraceEvent) { res.trace = append(res.trace, ev) })

	// Buffered writes are posted: they complete at enqueue and may sit below
	// the drain watermark forever, so they count as done when accepted, not
	// via Done (which only fires if the write actually drains).
	posted := func(sp reqSpec) bool { return sp.write && cfg.WriteQueueDepth > 0 }
	completed := 0
	next := 0
	var pending *Request
	var pendingPosted bool
	now := clock.Time(0)
	const retryGap = 50 * clock.Nanosecond
	for completed < len(specs) {
		for {
			if pending == nil {
				if next >= len(specs) || specs[next].at > now {
					break
				}
				sp := specs[next]
				next++
				pending = &Request{ID: sys.NewID(), Addr: sp.addr, Write: sp.write, Core: sp.core}
				pendingPosted = posted(sp)
				if !pendingPosted {
					pending.Done = func(clock.Time) { completed++ }
				}
			}
			if !sys.Enqueue(pending, now) {
				break // full: retry after the controller makes progress
			}
			if pendingPosted {
				completed++
			}
			pending = nil
		}
		target := sys.NextEvent()
		if pending != nil {
			target = clock.Min(target, now+retryGap)
		} else if next < len(specs) {
			target = clock.Min(target, specs[next].at)
		}
		if target <= now {
			target = now + 1
		}
		now = target
		advance(now)
	}
	// Drain trailing mitigation work (queued ARRs, victim refreshes) so the
	// traces also cover post-completion defense scheduling.
	horizon := now + 50*clock.Microsecond
	for {
		ev := sys.NextEvent()
		if ev > horizon {
			break
		}
		advance(ev)
	}
	res.cnt = *cnt
	res.det = sys.DetectionsByCore()
	res.steps = sys.Steps()
	res.served = completed
	return res
}

// diffConfigs is the matrix: every page policy and both schedulers, with
// write buffering and refresh postponement toggled across the cases.
func diffConfigs(p dram.Params) []struct {
	name string
	cfg  Config
} {
	base := NewConfig(p)
	mk := func(sched Scheduler, pol PagePolicy, wq, postpone int) Config {
		c := base
		c.Scheduler = sched
		c.PagePolicy = pol
		c.RefreshPostpone = postpone
		c.WriteQueueDepth = wq
		if wq > 0 {
			c.WriteHigh, c.WriteLow = wq*3/4, wq/4
		}
		return c
	}
	return []struct {
		name string
		cfg  Config
	}{
		{"frfcfs_open_buffered", mk(FRFCFS, OpenPage, 16, 0)},
		{"frfcfs_closed_unbuffered", mk(FRFCFS, ClosedPage, 0, 2)},
		{"frfcfs_minopen_buffered", mk(FRFCFS, MinimalistOpen, 16, 2)},
		{"parbs_open_buffered", mk(PARBS, OpenPage, 16, 2)},
		{"parbs_closed_buffered", mk(PARBS, ClosedPage, 16, 0)},
		{"parbs_minopen_unbuffered", mk(PARBS, MinimalistOpen, 0, 0)},
	}
}

func diffCompare(t *testing.T, idx, ref streamResult) {
	t.Helper()
	n := len(idx.trace)
	if len(ref.trace) < n {
		n = len(ref.trace)
	}
	for i := 0; i < n; i++ {
		if idx.trace[i] != ref.trace[i] {
			t.Fatalf("trace diverges at event %d:\n  indexed:   %+v\n  reference: %+v", i, idx.trace[i], ref.trace[i])
		}
	}
	if len(idx.trace) != len(ref.trace) {
		t.Fatalf("trace length: indexed %d, reference %d (prefix of %d identical)", len(idx.trace), len(ref.trace), n)
	}
	if idx.cnt != ref.cnt {
		t.Errorf("counters diverge:\n  indexed:   %+v\n  reference: %+v", idx.cnt, ref.cnt)
	}
	if len(idx.det) != len(ref.det) {
		t.Errorf("detection attribution diverges: indexed %v, reference %v", idx.det, ref.det)
	} else {
		for c, v := range idx.det {
			if ref.det[c] != v {
				t.Errorf("detections for core %d: indexed %d, reference %d", c, v, ref.det[c])
			}
		}
	}
	if idx.trace == nil {
		t.Fatal("differential run issued no commands; the stream is not exercising the scheduler")
	}
}

func TestSchedulerDifferential(t *testing.T) {
	p := diffParams()
	for ci, c := range diffConfigs(p) {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s/seed%d", c.name, seed)
			t.Run(name, func(t *testing.T) {
				specs := mkStream(seed*1000+int64(ci), 1200, p, 0.4)
				idx := runStream(t, c.cfg, &diffDefense{every: 7}, specs, false)
				ref := runStream(t, c.cfg, &diffDefense{every: 7}, specs, true)
				diffCompare(t, idx, ref)
				if idx.cnt.ARRs == 0 || idx.cnt.Nacks == 0 || idx.cnt.DefenseACTs == 0 {
					t.Errorf("stream did not exercise defense classes: %+v", idx.cnt)
				}
			})
		}
	}
}

// TestSchedulerDifferentialSparseCores draws core ids from {0, 2, 5, 7}, so
// the channel's dense per-core batch state holds ids that never issue a
// request. The reference forms batches and ranks cores on its own, so an
// indexed ranking that also ranked cores without marked requests diverges
// here.
func TestSchedulerDifferentialSparseCores(t *testing.T) {
	p := diffParams()
	sparse := []int{0, 2, 5, 7}
	for ci, c := range diffConfigs(p) {
		if c.cfg.Scheduler != PARBS {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			specs := mkStream(7000+int64(ci), 1200, p, 0.4)
			for i := range specs {
				specs[i].core = sparse[specs[i].core]
			}
			idx := runStream(t, c.cfg, &diffDefense{every: 7}, specs, false)
			ref := runStream(t, c.cfg, &diffDefense{every: 7}, specs, true)
			diffCompare(t, idx, ref)
		})
	}
}

// TestSchedulerDifferentialWideChannel spreads 80 banks over two ranks, so
// the busy-bank mask spans two words and rank 1's bit range crosses the
// word boundary: the demand walk and refresh postponement's rank test both
// read across it.
func TestSchedulerDifferentialWideChannel(t *testing.T) {
	p := diffParams()
	p.BanksPerRank = 40
	for _, c := range diffConfigs(p) {
		if c.cfg.RefreshPostpone == 0 {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			specs := mkStream(4242, 1500, p, 0.3)
			idx := runStream(t, c.cfg, &diffDefense{every: 7}, specs, false)
			ref := runStream(t, c.cfg, &diffDefense{every: 7}, specs, true)
			diffCompare(t, idx, ref)
		})
	}
}

// TestSchedulerDifferentialTWiCe runs the real paper defense over a
// hammer-heavy stream on a fast-detection timescale, so the differential
// also covers the TWiCe-driven ARR protocol end to end.
func TestSchedulerDifferentialTWiCe(t *testing.T) {
	p := diffParams()
	p.TREFW = 1 * clock.Millisecond // maxLife 128: detection reachable quickly
	mkTwice := func() defense.Defense {
		ccfg := core.NewConfig(p)
		ccfg.ThRH = 512
		ccfg.Org = core.FA
		tw, err := core.New(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		return tw
	}
	cfg := NewConfig(p)
	cfg.PagePolicy = ClosedPage // every access is a fresh ACT
	specs := mkStream(99, 2500, p, 0.85)
	idx := runStream(t, cfg, mkTwice(), specs, false)
	ref := runStream(t, cfg, mkTwice(), specs, true)
	diffCompare(t, idx, ref)
}

// TestResetRerunIdentity pins machine reuse for the new indexes: a reset
// system must issue the exact command stream a fresh one does.
func TestResetRerunIdentity(t *testing.T) {
	p := diffParams()
	cfg := NewConfig(p)
	specs := mkStream(5, 800, p, 0.3)

	run := func(sys *System) []TraceEvent {
		var trace []TraceEvent
		sys.SetTrace(func(ev TraceEvent) { trace = append(trace, ev) })
		completed, next := 0, 0
		var pending *Request
		var pendingPosted bool
		now := clock.Time(0)
		for completed < len(specs) {
			for {
				if pending == nil {
					if next >= len(specs) || specs[next].at > now {
						break
					}
					sp := specs[next]
					next++
					pending = &Request{ID: sys.NewID(), Addr: sp.addr, Write: sp.write, Core: sp.core}
					pendingPosted = sp.write && cfg.WriteQueueDepth > 0
					if !pendingPosted {
						pending.Done = func(clock.Time) { completed++ }
					}
				}
				if !sys.Enqueue(pending, now) {
					break
				}
				if pendingPosted {
					completed++
				}
				pending = nil
			}
			target := sys.NextEvent()
			if pending != nil {
				target = clock.Min(target, now+50*clock.Nanosecond)
			} else if next < len(specs) {
				target = clock.Min(target, specs[next].at)
			}
			if target <= now {
				target = now + 1
			}
			now = target
			sys.Advance(now)
		}
		return trace
	}

	r := newRig(t, cfg, defense.Nop{})
	first := run(r.sys)
	// Reset in the machine's reuse order (device, controller, RCD): the
	// controller re-derives its attention index before the RCD resets, so
	// this also exercises the stale-attention self-healing path.
	r.dev.Reset()
	r.sys.Reset()
	r.sys.RCD().Reset()
	*r.cnt = stats.Counters{}
	second := run(r.sys)
	if len(first) != len(second) {
		t.Fatalf("trace length after reset: %d, fresh %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("reset rerun diverges at event %d: fresh %+v, rerun %+v", i, first[i], second[i])
		}
	}
	if len(first) == 0 {
		t.Fatal("no commands traced")
	}
}

// TestBankQueueDepthAccessors sanity-checks the bucket read side used by the
// telemetry gauge.
func TestBankQueueDepthAccessors(t *testing.T) {
	cfg := NewConfig(sysParams())
	r := newRig(t, cfg, defense.Nop{})
	if got := r.sys.MaxBankQueueDepth(); got != 0 {
		t.Fatalf("idle MaxBankQueueDepth = %d, want 0", got)
	}
	for i := 0; i < 3; i++ {
		if !r.sys.Enqueue(req(r, dram.Addr{Bank: 2, Row: 10 + i}, false, 0), 0) {
			t.Fatal("enqueue failed")
		}
	}
	if !r.sys.Enqueue(req(r, dram.Addr{Bank: 1, Row: 7}, true, 0), 0) {
		t.Fatal("enqueue failed")
	}
	if got := r.sys.BankQueueDepth(0, 0, 2); got != 3 {
		t.Errorf("BankQueueDepth(bank 2) = %d, want 3", got)
	}
	if got := r.sys.BankQueueDepth(0, 0, 1); got != 1 {
		t.Errorf("BankQueueDepth(bank 1) = %d, want 1 (buffered write)", got)
	}
	if got := r.sys.MaxBankQueueDepth(); got != 3 {
		t.Errorf("MaxBankQueueDepth = %d, want 3", got)
	}
}

// TestStepSteadyStateAllocFree pins the hot path at zero allocations per
// scheduler step in steady state, for both schedulers and both
// implementations (the reference's scratch is amortized too).
func TestStepSteadyStateAllocFree(t *testing.T) {
	for _, sched := range []Scheduler{FRFCFS, PARBS} {
		for _, useRef := range []bool{false, true} {
			name := fmt.Sprintf("%v/ref=%v", sched, useRef)
			t.Run(name, func(t *testing.T) {
				cfg := NewConfig(sysParams())
				cfg.Scheduler = sched
				r := newRig(t, cfg, defense.Nop{})
				advance := r.sys.Advance
				if useRef {
					advance = newRefScheduler(r.sys).Advance
				}
				var free []*Request
				r.sys.SetRelease(func(q *Request) { free = append(free, q) })
				for i := 0; i < 256; i++ {
					free = append(free, &Request{})
				}
				rng := rand.New(rand.NewSource(11))
				now := clock.Time(0)
				pump := func() {
					for k := 0; k < 4 && len(free) > 0; k++ {
						q := free[len(free)-1]
						free = free[:len(free)-1]
						*q = Request{
							ID:    r.sys.NewID(),
							Addr:  dram.Addr{Bank: rng.Intn(4), Row: rng.Intn(32), Col: rng.Intn(16)},
							Write: rng.Intn(4) == 0,
							Core:  rng.Intn(2),
						}
						if !r.sys.Enqueue(q, now) {
							free = append(free, q)
							break
						}
					}
					for i := 0; i < 8; i++ {
						now = r.sys.NextEvent()
						advance(now)
					}
				}
				for i := 0; i < 300; i++ { // warmup: grow every queue, bucket, and scratch
					pump()
				}
				if avg := testing.AllocsPerRun(100, pump); avg > 0 {
					t.Errorf("channel.step allocates %.2f allocs/run in steady state, want 0", avg)
				}
			})
		}
	}
}
