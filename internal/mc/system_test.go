package mc

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/dram"
	"repro/internal/rcd"
	"repro/internal/stats"
)

func sysParams() dram.Params {
	p := dram.DDR4_2400()
	p.Channels = 1
	p.RanksPerChannel = 1
	p.BanksPerRank = 4
	p.RowsPerBank = 256
	p.ColumnsPerRow = 16
	p.SpareRowsPerBank = 8
	p.NTh = 140000
	return p
}

// rig bundles a controller with its accounting for tests.
type rig struct {
	sys *System
	cnt *stats.Counters
	dev *dram.Device
}

func newRig(t testing.TB, cfg Config, def defense.Defense) *rig {
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
	return &rig{sys: sys, cnt: cnt, dev: dev}
}

// run pumps the controller until all given requests complete or the deadline
// passes, returning the number completed.
func (r *rig) run(t *testing.T, reqs []*Request, deadline clock.Time) int {
	t.Helper()
	done := 0
	for _, q := range reqs {
		prev := q.Done
		q.Done = func(c clock.Time) {
			done++
			if prev != nil {
				prev(c)
			}
		}
		if !r.sys.Enqueue(q, 0) {
			t.Fatal("queue full during test setup")
		}
	}
	now := clock.Time(0)
	for done < len(reqs) && now < deadline {
		now = r.sys.NextEvent()
		if now >= deadline {
			break
		}
		r.sys.Advance(now)
	}
	return done
}

// drain pumps the controller until no event remains at or before `until`,
// letting queued mitigation work (ARRs, victim refreshes) finish after the
// demand stream has completed.
func (r *rig) drain(until clock.Time) {
	for {
		now := r.sys.NextEvent()
		if now > until {
			return
		}
		r.sys.Advance(now)
	}
}

func req(r *rig, addr dram.Addr, write bool, core int) *Request {
	return &Request{ID: r.sys.NewID(), Addr: addr, Write: write, Core: core}
}

func TestConfigValidation(t *testing.T) {
	cfg := NewConfig(sysParams())
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := cfg
	bad.QueueDepth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero queue depth accepted")
	}
	bad = cfg
	bad.MaxRowHits = 0
	if err := bad.Validate(); err == nil {
		t.Error("minimalist-open with zero hits accepted")
	}
	bad = cfg
	bad.BatchCap = 0
	if err := bad.Validate(); err == nil {
		t.Error("PAR-BS with zero batch cap accepted")
	}
}

func TestPolicyStrings(t *testing.T) {
	if FRFCFS.String() != "FR-FCFS" || PARBS.String() != "PAR-BS" {
		t.Error("scheduler names wrong")
	}
	if OpenPage.String() != "open" || ClosedPage.String() != "closed" || MinimalistOpen.String() != "minimalist-open" {
		t.Error("page policy names wrong")
	}
	if Scheduler(7).String() == "" || PagePolicy(7).String() == "" {
		t.Error("unknown enum names empty")
	}
}

func TestSingleReadCompletes(t *testing.T) {
	r := newRig(t, NewConfig(sysParams()), defense.Nop{})
	var completion clock.Time
	q := req(r, dram.Addr{Row: 5, Col: 3}, false, 0)
	q.Done = func(c clock.Time) { completion = c }
	if got := r.run(t, []*Request{q}, clock.Millisecond); got != 1 {
		t.Fatal("read did not complete")
	}
	p := sysParams()
	want := p.TRCD + p.TCL + p.TBL // ACT at 0, RD at tRCD, data at +tCL+tBL
	if completion != want {
		t.Errorf("completion = %v, want %v", completion, want)
	}
	if r.cnt.NormalACTs != 1 || r.cnt.Reads != 1 {
		t.Errorf("counters: %+v", r.cnt)
	}
	if r.cnt.RowMisses != 1 {
		t.Errorf("row misses = %d, want 1", r.cnt.RowMisses)
	}
}

func TestRowHitsUnderOpenPolicy(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.PagePolicy = OpenPage
	r := newRig(t, cfg, defense.Nop{})
	reqs := make([]*Request, 8)
	for i := range reqs {
		reqs[i] = req(r, dram.Addr{Row: 9, Col: i}, false, 0)
	}
	if got := r.run(t, reqs, clock.Millisecond); got != 8 {
		t.Fatalf("completed %d of 8", got)
	}
	if r.cnt.NormalACTs != 1 {
		t.Errorf("ACTs = %d, want 1 (all hits after the first)", r.cnt.NormalACTs)
	}
	if r.cnt.RowHits != 7 {
		t.Errorf("row hits = %d, want 7", r.cnt.RowHits)
	}
}

func TestMinimalistOpenClosesAfterBudget(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.PagePolicy = MinimalistOpen
	cfg.MaxRowHits = 4
	r := newRig(t, cfg, defense.Nop{})
	reqs := make([]*Request, 8)
	for i := range reqs {
		reqs[i] = req(r, dram.Addr{Row: 9, Col: i}, false, 0)
	}
	if got := r.run(t, reqs, clock.Millisecond); got != 8 {
		t.Fatalf("completed %d of 8", got)
	}
	// 8 accesses with a 4-hit budget = 2 activations.
	if r.cnt.NormalACTs != 2 {
		t.Errorf("ACTs = %d, want 2", r.cnt.NormalACTs)
	}
}

func TestClosedPagePrechargesEveryAccess(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.PagePolicy = ClosedPage
	r := newRig(t, cfg, defense.Nop{})
	reqs := make([]*Request, 4)
	for i := range reqs {
		reqs[i] = req(r, dram.Addr{Row: 9, Col: i}, false, 0)
	}
	if got := r.run(t, reqs, clock.Millisecond); got != 4 {
		t.Fatalf("completed %d of 4", got)
	}
	if r.cnt.NormalACTs != 4 {
		t.Errorf("ACTs = %d, want 4", r.cnt.NormalACTs)
	}
	if r.cnt.RowHits != 0 {
		t.Errorf("row hits = %d, want 0", r.cnt.RowHits)
	}
}

func TestConflictAccounting(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.PagePolicy = OpenPage
	cfg.Scheduler = FRFCFS
	r := newRig(t, cfg, defense.Nop{})
	a := req(r, dram.Addr{Row: 1, Col: 0}, false, 0)
	b := req(r, dram.Addr{Row: 2, Col: 0}, false, 0)
	if got := r.run(t, []*Request{a, b}, clock.Millisecond); got != 2 {
		t.Fatal("requests did not complete")
	}
	if r.cnt.RowConflicts != 1 {
		t.Errorf("conflicts = %d, want 1", r.cnt.RowConflicts)
	}
	if r.cnt.Precharges == 0 {
		t.Error("no precharges recorded for the conflict")
	}
}

func TestFRFCFSServesHitFirst(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.PagePolicy = OpenPage
	cfg.Scheduler = FRFCFS
	r := newRig(t, cfg, defense.Nop{})

	// Open row 1 first, then queue a conflicting (older) and a hitting
	// (younger) request: FR-FCFS serves the hit first.
	warm := req(r, dram.Addr{Row: 1, Col: 0}, false, 0)
	if got := r.run(t, []*Request{warm}, clock.Millisecond); got != 1 {
		t.Fatal("warm-up failed")
	}
	var order []int64
	conflict := req(r, dram.Addr{Row: 2, Col: 0}, false, 0)
	hit := req(r, dram.Addr{Row: 1, Col: 1}, false, 0)
	conflict.Done = func(clock.Time) { order = append(order, conflict.ID) }
	hit.Done = func(clock.Time) { order = append(order, hit.ID) }
	if !r.sys.Enqueue(conflict, clock.Microsecond) || !r.sys.Enqueue(hit, clock.Microsecond) {
		t.Fatal("enqueue failed")
	}
	now := clock.Microsecond
	for len(order) < 2 {
		now = r.sys.NextEvent()
		r.sys.Advance(now)
	}
	if order[0] != hit.ID {
		t.Errorf("completion order = %v, want row hit (%d) first", order, hit.ID)
	}
}

func TestRefreshHappensEveryTREFI(t *testing.T) {
	r := newRig(t, NewConfig(sysParams()), defense.Nop{})
	// Run idle for ~10 tREFI.
	horizon := 10 * sysParams().TREFI
	for {
		now := r.sys.NextEvent()
		if now > horizon {
			break
		}
		r.sys.Advance(now)
	}
	if r.cnt.Refreshes < 8 || r.cnt.Refreshes > 11 {
		t.Errorf("refreshes in 10·tREFI = %d, want ≈ 10", r.cnt.Refreshes)
	}
	st := r.dev.Bank(dram.BankID{}).Stats()
	if st.AutoRefreshes != r.cnt.Refreshes {
		t.Errorf("device refreshes %d != controller %d", st.AutoRefreshes, r.cnt.Refreshes)
	}
}

func TestRefreshDrainsOpenRows(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.PagePolicy = OpenPage
	r := newRig(t, cfg, defense.Nop{})
	warm := req(r, dram.Addr{Row: 3, Col: 0}, false, 0)
	if got := r.run(t, []*Request{warm}, clock.Millisecond); got != 1 {
		t.Fatal("warm-up failed")
	}
	// The row stays open (open policy); refresh must force it closed.
	horizon := 3 * sysParams().TREFI
	for {
		now := r.sys.NextEvent()
		if now > horizon {
			break
		}
		r.sys.Advance(now)
	}
	if r.cnt.Refreshes == 0 {
		t.Error("refresh starved by an open row")
	}
}

// twiceRig builds a rig with a low-threshold TWiCe for fast ARR tests.
func twiceRig(t *testing.T, thRH int) (*rig, *core.TWiCe) {
	t.Helper()
	p := sysParams()
	ccfg := core.NewConfig(p)
	ccfg.ThRH = thRH
	ccfg.Org = core.FA
	tw, err := core.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(p)
	cfg.PagePolicy = ClosedPage // every access is a fresh ACT
	return newRig(t, cfg, tw), tw
}

func TestARRIssuedAtThreshold(t *testing.T) {
	// thRH must be ≥ maxlife = tREFW/tREFI = 8192.
	r, tw := twiceRig(t, 8192)
	hammer := dram.Addr{Row: 50, Col: 0}
	issued, completed := 0, 0
	now := clock.Time(0)
	for completed < 8192 {
		if r.sys.HasSpace(0) && issued < 8192 {
			q := req(r, hammer, false, 0)
			q.Done = func(clock.Time) { completed++ }
			if r.sys.Enqueue(q, now) {
				issued++
			}
		}
		now = r.sys.NextEvent()
		r.sys.Advance(now)
	}
	r.drain(now + 10*clock.Microsecond)
	if got := tw.Detections(); got != 1 {
		t.Fatalf("TWiCe detections = %d, want 1", got)
	}
	if r.cnt.ARRs != 1 {
		t.Fatalf("ARRs issued = %d, want 1", r.cnt.ARRs)
	}
	if r.cnt.DefenseACTs != 2 {
		t.Errorf("defense ACTs = %d, want 2 (two ARR victims)", r.cnt.DefenseACTs)
	}
	if r.cnt.Detections != 1 {
		t.Errorf("controller detections = %d, want 1", r.cnt.Detections)
	}
	// The victims' disturbance was cleared by the ARR.
	bank := r.dev.Bank(dram.BankID{})
	if d := bank.Disturbance(49); d > 8192 {
		t.Errorf("victim disturbance = %d; ARR did not refresh", d)
	}
}

func TestDetectionAttribution(t *testing.T) {
	// Detections are attributed to the core whose ACT triggered them.
	r, _ := twiceRig(t, 8192)
	hammer := dram.Addr{Row: 50, Col: 0}
	benign := dram.Addr{Bank: 1, Row: 9, Col: 0}
	issued, completed := 0, 0
	now := clock.Time(0)
	for completed < 15000 {
		if r.sys.HasSpace(0) {
			addr, core := hammer, 3 // core 3 is the attacker
			if issued%4 == 0 {
				addr, core = benign, 0
			}
			q := req(r, addr, false, core)
			q.Done = func(clock.Time) { completed++ }
			if r.sys.Enqueue(q, now) {
				issued++
			}
		}
		now = r.sys.NextEvent()
		r.sys.Advance(now)
	}
	by := r.sys.DetectionsByCore()
	if by[3] == 0 {
		t.Fatalf("attacker core not attributed: %v", by)
	}
	if by[0] != 0 {
		t.Errorf("benign core attributed %d detections", by[0])
	}
}

func TestNacksCountedDuringARR(t *testing.T) {
	r, _ := twiceRig(t, 8192)
	hammer := dram.Addr{Row: 50, Col: 0}
	other := dram.Addr{Bank: 0, Row: 99, Col: 0} // same rank, hit by the block
	issued, completed := 0, 0
	now := clock.Time(0)
	for completed < 11000 {
		if r.sys.HasSpace(0) {
			addr := hammer
			if issued%8 == 7 {
				addr = other
			}
			q := req(r, addr, false, 0)
			q.Done = func(clock.Time) { completed++ }
			if r.sys.Enqueue(q, now) {
				issued++
			}
		}
		now = r.sys.NextEvent()
		r.sys.Advance(now)
	}
	if r.cnt.ARRs == 0 {
		t.Fatal("no ARRs issued")
	}
	if r.cnt.Nacks == 0 {
		t.Error("no nacks recorded despite ACTs during the ARR window")
	}
	if got := r.sys.RCD().Stats().Nacks; got != r.cnt.Nacks {
		t.Errorf("RCD nacks %d != controller nacks %d", got, r.cnt.Nacks)
	}
}

func TestMitigationVictimRefreshPath(t *testing.T) {
	// A defense returning LogicalVictims (PARA-style) causes one defense
	// ACT per victim and actually rejuvenates the row in the device.
	p := sysParams()
	def := &scriptedDefense{fireOn: 3, victims: []int{51}}
	cfg := NewConfig(p)
	cfg.PagePolicy = ClosedPage
	r := newRig(t, cfg, def)
	reqs := make([]*Request, 6)
	for i := range reqs {
		reqs[i] = req(r, dram.Addr{Row: 50, Col: 0}, false, 0)
	}
	if got := r.run(t, reqs, 10*clock.Millisecond); got != 6 {
		t.Fatalf("completed %d of 6", got)
	}
	if r.cnt.DefenseACTs != 1 {
		t.Errorf("defense ACTs = %d, want 1", r.cnt.DefenseACTs)
	}
	bank := r.dev.Bank(dram.BankID{})
	// Row 51's disturbance was reset by the victim refresh on the 3rd ACT,
	// then accumulated 3 more from ACTs 4-6.
	if d := bank.Disturbance(51); d != 3 {
		t.Errorf("victim disturbance = %d, want 3", d)
	}
}

func TestExtraAccessesOccupyBankAndCount(t *testing.T) {
	p := sysParams()
	def := &scriptedDefense{fireOn: 1, extra: 2, every: true}
	cfg := NewConfig(p)
	cfg.PagePolicy = ClosedPage
	r := newRig(t, cfg, def)
	reqs := make([]*Request, 4)
	for i := range reqs {
		reqs[i] = req(r, dram.Addr{Row: 10 + i, Col: 0}, false, 0)
	}
	if got := r.run(t, reqs, 10*clock.Millisecond); got != 4 {
		t.Fatalf("completed %d of 4", got)
	}
	r.drain(10 * clock.Millisecond)
	if r.cnt.DefenseACTs != 8 {
		t.Errorf("defense ACTs = %d, want 8 (2 per demand ACT)", r.cnt.DefenseACTs)
	}
}

func TestQueueBackpressure(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.QueueDepth = 2
	r := newRig(t, cfg, defense.Nop{})
	a := req(r, dram.Addr{Row: 1}, false, 0)
	b := req(r, dram.Addr{Row: 2}, false, 0)
	c := req(r, dram.Addr{Row: 3}, false, 0)
	if !r.sys.Enqueue(a, 0) || !r.sys.Enqueue(b, 0) {
		t.Fatal("first two enqueues failed")
	}
	if r.sys.Enqueue(c, 0) {
		t.Fatal("third enqueue accepted beyond queue depth")
	}
	if r.sys.HasSpace(0) {
		t.Error("HasSpace true on a full queue")
	}
}

func TestWritesArePosted(t *testing.T) {
	r := newRig(t, NewConfig(sysParams()), defense.Nop{})
	var completion clock.Time
	q := req(r, dram.Addr{Row: 5}, true, 0)
	q.Done = func(c clock.Time) { completion = c }
	if got := r.run(t, []*Request{q}, clock.Millisecond); got != 1 {
		t.Fatal("write did not complete")
	}
	p := sysParams()
	if completion != p.TRCD {
		t.Errorf("write completion = %v, want issue time %v (posted)", completion, p.TRCD)
	}
	if r.cnt.Writes != 1 {
		t.Errorf("writes = %d", r.cnt.Writes)
	}
}

func TestPARBSMarksBatches(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.Scheduler = PARBS
	cfg.BatchCap = 2
	r := newRig(t, cfg, defense.Nop{})
	// Core 0 floods one bank; core 1 sends a single request. PAR-BS caps
	// core 0's marked share at BatchCap per bank, so core 1's request is
	// served within the first batch despite arriving last.
	var firstDone int
	reqs := make([]*Request, 0, 7)
	for i := 0; i < 6; i++ {
		q := req(r, dram.Addr{Row: 1, Col: i}, false, 0)
		reqs = append(reqs, q)
	}
	lone := req(r, dram.Addr{Bank: 1, Row: 7, Col: 0}, false, 1)
	reqs = append(reqs, lone)
	for _, q := range reqs {
		q := q
		prev := q.Done
		q.Done = func(c clock.Time) {
			if firstDone == 0 {
				firstDone = int(q.Core)
			}
			if prev != nil {
				prev(c)
			}
		}
	}
	if got := r.run(t, reqs, 10*clock.Millisecond); got != 7 {
		t.Fatalf("completed %d of 7", got)
	}
	// The lone core-1 request is in the first batch (cap restricts core 0)
	// and runs on an otherwise idle bank, so it finishes among the first.
	if r.cnt.RequestsServed == 0 {
		t.Fatal("nothing served")
	}
}

// scriptedDefense fires a scripted action on the nth OnActivate call (or on
// every call with every=true).
type scriptedDefense struct {
	fireOn  int
	every   bool
	victims []int
	extra   int
	calls   int
}

func (s *scriptedDefense) Name() string { return "scripted" }

func (s *scriptedDefense) OnActivate(_ dram.BankID, _ int, _ clock.Time) defense.Action {
	s.calls++
	if s.every || s.calls == s.fireOn {
		return defense.Action{LogicalVictims: s.victims, ExtraAccesses: s.extra}
	}
	return defense.Action{}
}

func (s *scriptedDefense) OnRefreshTick(dram.BankID, clock.Time) {}
func (s *scriptedDefense) Reset()                                {}

func TestWriteBufferDrainsAtHighWatermark(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.WriteQueueDepth = 8
	cfg.WriteHigh = 6
	cfg.WriteLow = 2
	r := newRig(t, cfg, defense.Nop{})
	// Keep a read stream alive so the "idle read queue" drain path is not
	// what empties the buffer.
	now := clock.Time(0)
	writesDone := 0
	for i := 0; i < 6; i++ {
		q := req(r, dram.Addr{Bank: i % 4, Row: 10 + i}, true, 0)
		q.Done = func(clock.Time) { writesDone++ }
		if !r.sys.Enqueue(q, now) {
			t.Fatalf("write %d rejected below queue depth", i)
		}
	}
	if got := r.sys.WriteQueueLen(0); got != 6 {
		t.Fatalf("write queue = %d, want 6", got)
	}
	r.drain(clock.Millisecond)
	if writesDone < 4 {
		t.Errorf("only %d writes drained after reaching the high watermark", writesDone)
	}
}

func TestWriteBufferBackpressure(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.WriteQueueDepth = 2
	cfg.WriteHigh = 2
	cfg.WriteLow = 0
	r := newRig(t, cfg, defense.Nop{})
	a := req(r, dram.Addr{Row: 1}, true, 0)
	b := req(r, dram.Addr{Row: 2}, true, 0)
	c := req(r, dram.Addr{Row: 3}, true, 0)
	if !r.sys.Enqueue(a, 0) || !r.sys.Enqueue(b, 0) {
		t.Fatal("writes rejected below depth")
	}
	if r.sys.Enqueue(c, 0) {
		t.Fatal("write accepted beyond write queue depth")
	}
	// Reads are unaffected by write backpressure.
	rd := req(r, dram.Addr{Row: 4}, false, 0)
	if !r.sys.Enqueue(rd, 0) {
		t.Fatal("read rejected while write buffer full")
	}
}

func TestWriteBufferDisablable(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.WriteQueueDepth = 0 // writes share the read queue
	r := newRig(t, cfg, defense.Nop{})
	q := req(r, dram.Addr{Row: 5}, true, 0)
	if got := r.run(t, []*Request{q}, clock.Millisecond); got != 1 {
		t.Fatal("write did not complete with buffering disabled")
	}
	if r.sys.WriteQueueLen(0) != 0 {
		t.Error("write buffer used despite being disabled")
	}
}

func TestWriteWatermarkValidation(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.WriteQueueDepth = 8
	cfg.WriteHigh = 2
	cfg.WriteLow = 4 // low above high
	if err := cfg.Validate(); err == nil {
		t.Error("inverted watermarks accepted")
	}
	cfg.WriteHigh = 9 // above depth
	cfg.WriteLow = 1
	if err := cfg.Validate(); err == nil {
		t.Error("high watermark above depth accepted")
	}
}

func TestRefreshPostponement(t *testing.T) {
	// With postponement enabled and steady demand, refreshes defer but the
	// debt never exceeds the budget, and the long-run refresh count is
	// conserved (postponed REFs are repaid back-to-back).
	p := sysParams()
	strict := NewConfig(p)
	lazy := NewConfig(p)
	lazy.RefreshPostpone = 8

	runWithStream := func(cfg Config) (refreshes int64) {
		r := newRig(t, cfg, defense.Nop{})
		now := clock.Time(0)
		horizon := 40 * p.TREFI
		issued := 0
		for now < horizon {
			if r.sys.HasSpace(0) {
				q := req(r, dram.Addr{Row: issued % 64, Col: issued % 16}, false, 0)
				if r.sys.Enqueue(q, now) {
					issued++
				}
			}
			now = r.sys.NextEvent()
			r.sys.Advance(now)
		}
		return r.cnt.Refreshes
	}
	sRef := runWithStream(strict)
	lRef := runWithStream(lazy)
	if sRef == 0 || lRef == 0 {
		t.Fatalf("no refreshes: strict=%d lazy=%d", sRef, lRef)
	}
	// Conservation: over 40 tREFI the lazy controller may carry up to 8
	// unpaid refreshes but no more.
	if diff := sRef - lRef; diff < 0 || diff > 8 {
		t.Errorf("refresh debt = %d, want within [0, 8]", diff)
	}
}

func TestRefreshPostponeValidation(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.RefreshPostpone = 9
	if err := cfg.Validate(); err == nil {
		t.Error("postponement above the JEDEC limit accepted")
	}
	cfg.RefreshPostpone = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative postponement accepted")
	}
}

func TestPostponedRefreshCatchesUpWhenIdle(t *testing.T) {
	p := sysParams()
	cfg := NewConfig(p)
	cfg.RefreshPostpone = 4
	r := newRig(t, cfg, defense.Nop{})
	// Saturate with demand for ~6 tREFI so refreshes postpone...
	now := clock.Time(0)
	issued := 0
	for now < 6*p.TREFI {
		if r.sys.HasSpace(0) {
			q := req(r, dram.Addr{Row: issued % 64}, false, 0)
			if r.sys.Enqueue(q, now) {
				issued++
			}
		}
		now = r.sys.NextEvent()
		r.sys.Advance(now)
	}
	// ...then go idle: the debt must be repaid promptly.
	r.drain(now + 2*p.TREFI)
	want := int64((now + 2*p.TREFI - p.TREFI) / p.TREFI) // scheduled so far
	if got := r.cnt.Refreshes; got < want-1 {
		t.Errorf("refreshes = %d after idle catch-up, want ≈ %d", got, want)
	}
}
