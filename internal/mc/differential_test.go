package mc

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
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
// both implementations across every page policy and two write-buffer sizes,
// with a defense that exercises the ARR/nack/mitigation classes, and the full
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
// issued-command trace and accounting. Each observe function sees every
// issued command before it executes, with the queue state it was picked
// from.
func runStream(t *testing.T, cfg Config, def defense.Defense, specs []reqSpec, useRef bool, observe ...func(*System, TraceEvent)) streamResult {
	t.Helper()
	return driveStream(t, cfg, def, specs, useRef, nil, observe...)
}

// stallHorizon bounds a stream run's simulated time: every stream here is
// served within 100 µs, so a run still short of its requests at 10 ms has
// stopped serving them.
const stallHorizon = 10 * clock.Millisecond

// driveStream is runStream with an optional shadow (memo_test.go): when sh
// is set, it steps the indexed scheduler itself and re-derives the reused
// answers after every step and every admission.
func driveStream(t *testing.T, cfg Config, def defense.Defense, specs []reqSpec, useRef bool, sh *shadow, observe ...func(*System, TraceEvent)) streamResult {
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
	enqueue, advance := sys.Enqueue, sys.Advance
	if useRef {
		ref := newRefScheduler(sys)
		enqueue, advance = ref.Enqueue, ref.Advance
	}
	if sh != nil {
		sh.attach(t, sys)
		advance = sh.advance
		observe = append(observe, sh.issued)
	}
	var res streamResult
	sys.SetTrace(func(ev TraceEvent) {
		res.trace = append(res.trace, ev)
		for _, o := range observe {
			o(sys, ev)
		}
	})

	// Writes are posted: they complete at enqueue and may sit below the
	// drain watermark forever, so they count as done when accepted, not via
	// Done (which only fires if the write actually drains).
	completed := 0
	next := 0
	var pending *Request
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
				if !sp.write {
					pending.Done = func(clock.Time) { completed++ }
				}
			}
			wake := sys.chans[pending.Addr.Channel].wake
			if !enqueue(pending, now) {
				break // full: retry after the controller makes progress
			}
			if sh != nil {
				sh.enqueued(pending.Addr.Channel, wake, now)
			}
			if pending.Write {
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
		if now > stallHorizon {
			t.Fatalf("stream stalled: %d of %d requests served by %v", completed, len(specs), now)
		}
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

// diffConfigs is the matrix: every page policy with a 16-entry write buffer,
// plus a 4-entry buffer whose drain burst toggles often.
func diffConfigs(p dram.Params) []struct {
	name string
	cfg  Config
} {
	mk := func(pol PagePolicy, wq int) Config {
		c := NewConfig(p)
		c.PagePolicy = pol
		c.WriteQueueDepth, c.WriteHigh, c.WriteLow = wq, wq*3/4, wq/4
		return c
	}
	return []struct {
		name string
		cfg  Config
	}{
		{"parbs_open_buffered", mk(OpenPage, 16)},
		{"parbs_closed_buffered", mk(ClosedPage, 16)},
		{"parbs_minopen_buffered", mk(MinimalistOpen, 16)},
		{"parbs_minopen_wq4", mk(MinimalistOpen, 4)},
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

// TestSchedulerDifferentialRankedCores runs four cores with skewed
// loads, so batches rank them apart, and requires the per-bank picks'
// early exit to run past a ranked core: a demand ACT or column that issues
// a settled read (marked, top-ranked) while the first read the pick
// considered belongs to a core with a non-zero rank. An exit that stopped
// at that first read, or that took a ranked read for settled, diverges
// from the reference here.
func TestSchedulerDifferentialRankedCores(t *testing.T) {
	p := diffParams()
	for ci, c := range diffConfigs(p) {
		t.Run(c.name, func(t *testing.T) {
			specs := mkStream(9100+int64(ci), 1500, p, 0.5)
			rng := rand.New(rand.NewSource(9100 + int64(ci)))
			for i := range specs {
				// Core 0 issues half the requests, core 3 a tenth.
				specs[i].core = [10]int{0, 0, 0, 0, 0, 1, 1, 2, 2, 3}[rng.Intn(10)]
			}
			exits := 0
			observe := func(sys *System, ev TraceEvent) {
				if ev.Req == 0 || (ev.Op != int8(opACT) && ev.Op != int8(opColumn)) {
					return
				}
				ch := sys.chans[ev.Channel]
				hit := ev.Op == int8(opColumn)
				var first *Request
				for _, q := range ch.bankqs[ch.flat(ev.Rank, ev.Bank)].reads {
					if hit && q.Addr.Row != ev.Row {
						continue
					}
					if first == nil {
						first = q
					}
					if q.ID == ev.Req && q != first && ch.coreRank[first.Core] != 0 && settled(ch.demandKey(q, hit)) {
						exits++
					}
				}
			}
			idx := runStream(t, c.cfg, &diffDefense{every: 7}, specs, false, observe)
			ref := runStream(t, c.cfg, &diffDefense{every: 7}, specs, true)
			diffCompare(t, idx, ref)
			if exits == 0 {
				t.Error("no pick settled on a later read past a ranked core's first read")
			}
		})
	}
}

// TestSchedulerDifferentialWideChannel puts 64 banks on each of two ranks,
// the most a rank's 64-bit bank-state words hold, so bit 63 of each rank's
// words is in use: the demand sets and the batched timing queries both read
// it. The stream must reach bank 63 of both ranks, or the top bit goes
// untested.
func TestSchedulerDifferentialWideChannel(t *testing.T) {
	p := diffParams()
	p.BanksPerRank = 64
	for _, c := range diffConfigs(p) {
		t.Run(c.name, func(t *testing.T) {
			specs := mkStream(4242, 1500, p, 0.3)
			idx := runStream(t, c.cfg, &diffDefense{every: 7}, specs, false)
			ref := runStream(t, c.cfg, &diffDefense{every: 7}, specs, true)
			diffCompare(t, idx, ref)
			var top [2]bool
			for _, ev := range idx.trace {
				if ev.Bank == 63 && ev.Op == int8(opColumn) {
					top[ev.Rank] = true
				}
			}
			if !top[0] || !top[1] {
				t.Errorf("column commands reached bank 63 of rank 0: %v, rank 1: %v; want both", top[0], top[1])
			}
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

// TestResetRerunIdentity pins machine reuse for the indexes: a system reset
// in the machine's order (device, then controller, whose Reset also clears
// its RCD) must issue the exact command stream a fresh one does. The first
// run stops as soon as the RCD holds a pending ARR, with its bank's
// attention bit set. The demand sets trust the attention words, so a Reset
// that kept the ARR, or cleared it but left the bit, would never open a row
// in that bank again. The cut also leaves clean demand sets, cached picks
// and a settled channel, and Reset must clear all three.
func TestResetRerunIdentity(t *testing.T) {
	p := diffParams()
	cfg := NewConfig(p)
	specs := mkStream(5, 800, p, 0.3)
	const horizon = clock.Millisecond

	// run serves the stream until every request completes or stop reports
	// true after an Advance, and returns the issued commands and the
	// requests served.
	run := func(sys *System, stop func(now clock.Time) bool) ([]TraceEvent, int) {
		var trace []TraceEvent
		sys.SetTrace(func(ev TraceEvent) { trace = append(trace, ev) })
		completed, next := 0, 0
		var pending *Request
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
					if !sp.write {
						pending.Done = func(clock.Time) { completed++ }
					}
				}
				if !sys.Enqueue(pending, now) {
					break
				}
				if pending.Write {
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
			if stop(now) {
				break
			}
		}
		return trace, completed
	}
	pastHorizon := func(now clock.Time) bool { return now > horizon }

	first, firstServed := run(newRig(t, cfg, &diffDefense{every: 7}).sys, pastHorizon)
	if firstServed != len(specs) {
		t.Fatalf("fresh run served %d of %d requests", firstServed, len(specs))
	}
	def := &diffDefense{every: 7}
	r := newRig(t, cfg, def)
	arrPending := func(clock.Time) bool {
		for rk := 0; rk < p.RanksPerChannel; rk++ {
			for ba := 0; ba < p.BanksPerRank; ba++ {
				if r.sys.RCD().HasPendingARR(dram.BankID{Rank: rk, Bank: ba}) {
					return true
				}
			}
		}
		return false
	}
	if _, served := run(r.sys, arrPending); served == len(specs) {
		t.Fatal("the cut run served every request before any ARR was filed")
	}
	// reused counts the channel's clean sets, valid picks and settled flag.
	reused := func() (clean, picks int, settled bool) {
		for _, ch := range r.sys.chans {
			for _, m := range ch.memo {
				clean += bits.OnesCount8(m.clean)
			}
			for i := range ch.bankqs {
				if ch.bankqs[i].pickEpoch == ch.epoch {
					picks++
				}
			}
			settled = settled || ch.settled
		}
		return clean, picks, settled
	}
	if clean, picks, settled := reused(); clean == 0 || picks == 0 || !settled {
		t.Fatalf("the cut left %d clean sets, %d cached picks, settled %v; want some of each", clean, picks, settled)
	}
	attn := func() (n int) {
		for _, ch := range r.sys.chans {
			for _, w := range ch.attn {
				n += bits.OnesCount64(w)
			}
		}
		return n
	}
	if attn() == 0 {
		t.Fatal("no attention bit set at the cut, so the test covers nothing")
	}
	r.dev.Reset()
	r.sys.Reset()
	if clean, picks, settled := reused(); clean != 0 || picks != 0 || settled {
		t.Fatalf("after Reset: %d clean sets, %d cached picks, settled %v; want none", clean, picks, settled)
	}
	if pending, n := arrPending(0), attn(); pending || n != 0 {
		t.Fatalf("after Reset: ARR pending %v, %d attention bits set; want none", pending, n)
	}
	def.Reset()
	*r.cnt = stats.Counters{}
	second, secondServed := run(r.sys, pastHorizon)
	if secondServed != firstServed {
		t.Errorf("rerun served %d of %d requests, fresh run %d", secondServed, len(specs), firstServed)
	}
	for i := range first {
		if i >= len(second) {
			break
		}
		if first[i] != second[i] {
			t.Fatalf("reset rerun diverges at event %d: fresh %+v, rerun %+v", i, first[i], second[i])
		}
	}
	if len(first) != len(second) {
		t.Fatalf("trace length after reset: %d, fresh %d", len(second), len(first))
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
// scheduler step in steady state, for both implementations (the reference's
// queues and scratch are amortized too). One run of 100 pumps, so that a
// single allocation shows: AllocsPerRun rounds down to whole allocations per
// run.
func TestStepSteadyStateAllocFree(t *testing.T) {
	for _, useRef := range []bool{false, true} {
		t.Run(fmt.Sprintf("PAR-BS/ref=%v", useRef), func(t *testing.T) {
			cfg := NewConfig(sysParams())
			r := newRig(t, cfg, defense.Nop{})
			enqueue, advance := r.sys.Enqueue, r.sys.Advance
			if useRef {
				ref := newRefScheduler(r.sys)
				enqueue, advance = ref.Enqueue, ref.Advance
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
					if !enqueue(q, now) {
						free = append(free, q)
						break
					}
				}
				for i := 0; i < 8; i++ {
					now = r.sys.NextEvent()
					advance(now)
				}
			}
			for i := 0; i < 300; i++ { // warmup: grow every queue and scratch
				pump()
			}
			// A bucket grows by amortized appends until it has held the most
			// requests its bank ever queued, which the warmup need not reach;
			// grow each to its queue's depth, the most it can hold.
			for _, ch := range r.sys.chans {
				for i := range ch.bankqs {
					bq := &ch.bankqs[i]
					bq.reads = slices.Grow(bq.reads, cfg.QueueDepth-len(bq.reads))
					bq.writes = slices.Grow(bq.writes, cfg.WriteQueueDepth-len(bq.writes))
				}
			}
			if allocs := testing.AllocsPerRun(1, func() {
				for range 100 {
					pump()
				}
			}); allocs != 0 {
				t.Errorf("100 pumps allocate %v times in steady state, want 0", allocs)
			}
		})
	}
}
